package liteos

import (
	"errors"
	"fmt"
	"sort"
)

// Binary is a program image installed in the node's flash. LiteView's
// commands are binaries whose footprints the paper reports (ping:
// 2148 B flash / 278 B RAM; traceroute: 2820 B flash / 272 B RAM) and
// whose key efficiency property is introducing zero overhead when not
// activated — which the accounting here makes checkable.
type Binary struct {
	// Name identifies the image, e.g. "ping".
	Name string
	// Flash is the image size in bytes.
	Flash int
	// RAM is the static RAM the image needs while running.
	RAM int
}

// ProcState is a process lifecycle state.
type ProcState int

const (
	// Running means the process occupies RAM and may own a port.
	Running ProcState = iota
	// Exited means the process has terminated and released its RAM.
	Exited
)

func (s ProcState) String() string {
	if s == Running {
		return "running"
	}
	return "exited"
}

// Process is a running instance of a binary. LiteView commands execute
// "as individual processes" coexisting with user applications.
type Process struct {
	// PID is the node-local process identifier.
	PID int
	// Binary is the image the process runs.
	Binary string
	// Params is the parameter string snapshot the process read from the
	// kernel parameter buffer at start.
	Params string
	// State is the lifecycle state.
	State ProcState

	node *Node
	ram  int
}

// Errors from the process subsystem.
var (
	ErrNoSuchBinary = errors.New("liteos: no such binary installed")
	ErrNoRAM        = errors.New("liteos: out of RAM")
	ErrNoFlash      = errors.New("liteos: out of flash")
	ErrNotRunning   = errors.New("liteos: process not running")
)

// InstallBinary writes a program image into flash, charging the flash
// budget. Reinstalling the same name replaces the image (refunding the
// old size first).
func (n *Node) InstallBinary(b Binary) error {
	if b.Name == "" || b.Flash < 0 || b.RAM < 0 {
		return fmt.Errorf("liteos: invalid binary %+v", b)
	}
	charge := b.Flash
	if old, ok := n.binaries[b.Name]; ok {
		charge -= old.Flash
	}
	if n.flashUsed+charge > FlashBytes {
		return fmt.Errorf("%w: need %d, free %d", ErrNoFlash, charge, n.FlashFree())
	}
	n.flashUsed += charge
	img := b
	n.binaries[b.Name] = &img
	return nil
}

// Binaries returns the installed image names, sorted.
func (n *Node) Binaries() []string {
	out := make([]string, 0, len(n.binaries))
	for name := range n.binaries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BinaryInfo returns the installed image metadata.
func (n *Node) BinaryInfo(name string) (Binary, bool) {
	b, ok := n.binaries[name]
	if !ok {
		return Binary{}, false
	}
	return *b, true
}

// StartProcess launches an installed binary as a process. The process
// snapshots the kernel parameter buffer through the parameter-passing
// system call, exactly as the paper describes: the buffer is written by
// the runtime controller before the start, and the new process reads it
// to find its arguments.
func (n *Node) StartProcess(binary string) (*Process, error) {
	b, ok := n.binaries[binary]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchBinary, binary)
	}
	if n.ramUsed+b.RAM > RAMBytes {
		return nil, fmt.Errorf("%w: %q needs %d, free %d", ErrNoRAM, binary, b.RAM, n.RAMFree())
	}
	n.ramUsed += b.RAM
	n.nextPID++
	p := &Process{
		PID:    n.nextPID,
		Binary: binary,
		Params: n.SysParamBuffer(),
		State:  Running,
		node:   n,
		ram:    b.RAM,
	}
	n.procs[p.PID] = p
	return p, nil
}

// Exit terminates the process, refunding its RAM. Double exit is an
// error so callers notice lifecycle bugs.
func (p *Process) Exit() error {
	if p.State != Running {
		return ErrNotRunning
	}
	p.State = Exited
	p.node.ramUsed -= p.ram
	delete(p.node.procs, p.PID)
	return nil
}

// Processes returns the PIDs of running processes, sorted.
func (n *Node) Processes() []int {
	out := make([]int, 0, len(n.procs))
	for pid := range n.procs {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// Process returns the running process with the given PID.
func (n *Node) Process(pid int) (*Process, bool) {
	p, ok := n.procs[pid]
	return p, ok
}
