package chaos

// Helpers only the tests call; production code does not.

// Uninstall clears every hook the injector installed.
func (inj *Injector) Uninstall() {
	for _, unit := range inj.sys.Devices {
		unit.Drive.Flash().SetFaultHook(nil)
		unit.Drive.SetFaultHook(nil)
		unit.Drive.Controller().SetFaultHook(nil)
	}
}
