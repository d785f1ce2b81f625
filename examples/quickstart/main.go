// Quickstart: one CompStor device, one minion.
//
// Builds a simulated host with a single CompStor SSD, stages a file through
// the NVMe host path, offloads a grep to the in-storage processing
// subsystem, and reads the response — the minimal end-to-end walk of the
// in-situ library.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"compstor/internal/apps/appset"
	"compstor/internal/core"
	"compstor/internal/sim"
)

func main() {
	// A testbed: engine + energy meter + PCIe fabric + 1 CompStor with the
	// standard program set (gzip, bzip2, grep, gawk, sh, coreutils...).
	sys := core.NewSystem(core.SystemConfig{
		CompStors: 1,
		Registry:  appset.Base(),
	})
	unit := sys.Device(0)

	sys.Go("client", func(p *sim.Proc) {
		// Stage an input file onto the device through the host path.
		log := []byte("ok\nERROR disk on fire\nok\nERROR more fire\nok\n")
		if err := unit.Client.FS().WriteFile(p, "var/log/app.log", log); err != nil {
			panic(err)
		}

		// Offload: the command travels inside a minion; the data does not
		// travel at all.
		minion, err := unit.Client.SendMinion(p, core.Command{
			Exec:       "grep",
			Args:       []string{"-c", "ERROR", "var/log/app.log"},
			InputFiles: []string{"var/log/app.log"},
		})
		if err != nil {
			panic(err)
		}

		r := minion.Response
		if r.Status != core.StatusOK {
			panic(fmt.Sprintf("minion status %v: %s", r.Status, r.Error))
		}
		fmt.Printf("in-situ grep -c ERROR: %s", r.Stdout)
		fmt.Printf("status=%v exit=%d\n", r.Status, r.ExitCode)
		fmt.Printf("executed inside the SSD in %v; client round trip %v\n",
			r.Elapsed, minion.RoundTrip())

		// The device also answers administrative queries (Table II data,
		// used for load balancing).
		st, err := unit.Client.Status(p)
		if err != nil {
			panic(err)
		}
		fmt.Printf("ISPS: %d cores, %.1f°C, %d programs installed, %d task(s) completed\n",
			st.Cores, st.TemperatureC, len(st.Programs), st.CompletedTasks)
	})
	sys.Run()

	// Traffic receipt: only the command and the result crossed PCIe.
	stats := unit.Drive.Controller().Stats()
	fmt.Printf("vendor commands: %d; bytes to host since staging: %d\n",
		stats.VendorCmds, stats.BytesToHost)
}
