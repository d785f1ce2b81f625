// Package core implements the CompStor platform itself — the paper's
// primary contribution. It provides the software-stack entities (Command,
// Response, Minion, Query), the host-side in-situ client library, the
// device-side ISPS agent, the conventional host-execution baseline, and a
// System assembler that wires hosts, the PCIe fabric, and any number of
// CompStor or conventional drives into one simulated testbed.
package core

import (
	"encoding/json"
	"time"

	"compstor/internal/apps"
	"compstor/internal/isps"
	"compstor/internal/sim"
)

// Command describes an in-situ computation task: "the name of input and
// output files, the Linux shell command/script or the application name, the
// arguments needed to pass to the application, and access permissions"
// (paper §III.B).
type Command struct {
	// Exec names a program installed in the device registry; Args is its
	// argv. Alternatively Script carries a whole shell line.
	Exec   string   `json:"exec,omitempty"`
	Args   []string `json:"args,omitempty"`
	Script string   `json:"script,omitempty"`

	// InputFiles/OutputFiles declare the files the task touches (access
	// permissions in the paper's terms). Enforcement is advisory: the agent
	// verifies the inputs exist before spawning.
	InputFiles  []string `json:"input_files,omitempty"`
	OutputFiles []string `json:"output_files,omitempty"`

	// Stdin supplies standard input bytes, shipped with the minion.
	Stdin []byte `json:"stdin,omitempty"`

	// MemBytes reserves task memory on the ISPS (0 = default).
	MemBytes int64 `json:"mem_bytes,omitempty"`

	// Deadline, when non-zero, is the absolute virtual time by which the
	// task must finish. It rides inside the minion so the device enforces
	// it too: an in-situ task past its deadline aborts cooperatively,
	// releasing its core and DRAM, and answers StatusDeadline.
	Deadline sim.Time `json:"deadline,omitempty"`
	// Cancel is the host-side kill switch for this request (hedged twins
	// are tied through it: the winner cancels the loser). It is a live
	// object shared across the simulated wire, standing in for an NVMe
	// abort admin command; it is never serialised.
	Cancel *apps.CancelToken `json:"-"`
}

// Name is a short display label for traces: the program name, or "sh" for
// script commands.
func (c Command) Name() string {
	if c.Exec != "" {
		return c.Exec
	}
	if c.Script != "" {
		return "sh"
	}
	return "task"
}

// WireSize estimates the serialised size of the command as it crosses the
// fabric.
func (c Command) WireSize() int64 {
	b, err := json.Marshal(c)
	if err != nil {
		return 256
	}
	return int64(len(b)) + 64 // SQE-side framing
}

// Status of a completed minion.
type TaskStatus int

// Task statuses.
const (
	StatusOK TaskStatus = iota
	StatusFailed
	StatusRejected
	// StatusDeadline means the task was abandoned because its deadline
	// passed (before or during execution). The device is healthy and the
	// task was never completed; retrying cannot help — the clock already
	// ran out.
	StatusDeadline
	// StatusCanceled means the host revoked the request (its cancel token
	// fired) and the device abandoned it cooperatively.
	StatusCanceled
)

func (s TaskStatus) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusFailed:
		return "FAILED"
	case StatusRejected:
		return "REJECTED"
	case StatusDeadline:
		return "DEADLINE"
	case StatusCanceled:
		return "CANCELED"
	default:
		return "UNKNOWN"
	}
}

// Response carries "the final status of the command and time consumed to
// execute it inside CompStor" plus the task's output streams.
type Response struct {
	Status   TaskStatus
	ExitCode int
	Stdout   []byte
	Stderr   []byte
	// Elapsed is the in-device execution time.
	Elapsed time.Duration
	// Error holds failure detail.
	Error string
	// Retryable marks a failure rooted in the device's media — detected
	// corruption (a CRC-failed read) or a power cut mid-task — rather than
	// in the task itself. A retry elsewhere, or after the device recovers,
	// can succeed; cluster schedulers treat these like transport faults
	// instead of poisoning the task.
	Retryable bool

	// Trace timestamps for the minion lifetime (Table III).
	AgentReceived sim.Time
	TaskStarted   sim.Time
	TaskFinished  sim.Time
}

// WireSize estimates the response's serialised size.
func (r *Response) WireSize() int64 {
	return int64(len(r.Stdout)+len(r.Stderr)) + 128
}

// Minion is the virtual entity that travels from a client to a CompStor,
// delivers a command, waits for completion, and carries the response back.
type Minion struct {
	Command  Command
	Response *Response

	Submitted sim.Time
	Returned  sim.Time
}

// RoundTrip returns the client-observed latency.
func (m *Minion) RoundTrip() time.Duration { return m.Returned.Sub(m.Submitted) }

// QueryKind distinguishes administrative queries.
type QueryKind int

// Query kinds.
const (
	// QueryStatus asks for core utilisation, temperature, memory, and the
	// installed program list (the paper's load-balancing input).
	QueryStatus QueryKind = iota
)

// Query is the administrative virtual entity: unlike a minion it cannot
// trigger in-situ processing.
type Query struct {
	Kind QueryKind
}

// TaskLoad is the dynamic-task-loading payload: an executable installed
// into the device registry at runtime. BinaryBytes is the size of the
// (simulated) ARM binary shipped over the fabric.
type TaskLoad struct {
	Program     apps.Program
	BinaryBytes int64
}

// StatusReport is the answer to a status query.
type StatusReport = isps.Status
