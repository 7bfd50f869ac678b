package liteos

import (
	"errors"
	"testing"
	"time"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/sim"
)

func testNode(t *testing.T, id phys.NodeID, x float64) (*sim.Engine, *Node) {
	t.Helper()
	eng := sim.NewEngine(uint64(id))
	med := medium.New(eng, phys.DefaultModel(1))
	n, err := NewNode(eng, med, Config{
		ID:   id,
		Name: "192.168.0.1",
		Dir:  "/sn01",
		Pos:  phys.Position{X: x},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func TestNodeAssembly(t *testing.T) {
	_, n := testNode(t, 1, 0)
	if n.ID() != 1 || n.Name() != "192.168.0.1" {
		t.Fatalf("identity: %d %q", n.ID(), n.Name())
	}
	if n.Path() != "/sn01/192.168.0.1" {
		t.Fatalf("path = %q", n.Path())
	}
	if n.Radio().Channel() != 17 {
		t.Fatalf("default channel = %d, want 17", n.Radio().Channel())
	}
	if n.Stack() == nil || n.MAC() == nil || n.Neighbors() == nil {
		t.Fatal("components missing")
	}
	if n.RAMUsed() != KernelRAM || n.FlashUsed() != KernelFlash {
		t.Fatalf("fresh node accounting: ram=%d flash=%d", n.RAMUsed(), n.FlashUsed())
	}
}

func TestNodeValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	med := medium.New(eng, phys.DefaultModel(1))
	if _, err := NewNode(eng, med, Config{ID: 1}); err == nil {
		t.Fatal("nameless node accepted")
	}
	if _, err := NewNode(eng, med, Config{ID: 1, Name: "x", Channel: 99}); err == nil {
		t.Fatal("bad channel accepted")
	}
}

func TestTwoNodesCommunicate(t *testing.T) {
	eng := sim.NewEngine(7)
	model := phys.DefaultModel(7)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	med := medium.New(eng, model)
	a, err := NewNode(eng, med, Config{ID: 1, Name: "192.168.0.1", Pos: phys.Position{X: 0}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(eng, med, Config{ID: 2, Name: "192.168.0.2", Pos: phys.Position{X: 5}})
	if err != nil {
		t.Fatal(err)
	}
	a.Neighbors().Start()
	b.Neighbors().Start()
	eng.RunUntil(10 * time.Second)
	if e, ok := a.SysNeighborTable().Get(2); !ok || e.Name != "192.168.0.2" {
		t.Fatalf("node a table: %+v ok=%v", e, ok)
	}
}

func TestParamBufferSyscall(t *testing.T) {
	_, n := testNode(t, 1, 0)
	if n.SysParamBuffer() != "" {
		t.Fatal("fresh buffer not empty")
	}
	n.SysSetParamBuffer("192.168.0.2 round=3 length=32")
	if n.SysParamBuffer() != "192.168.0.2 round=3 length=32" {
		t.Fatal("buffer not stored")
	}
}

func TestInstallBinaryAndFootprint(t *testing.T) {
	_, n := testNode(t, 1, 0)
	before := n.FlashUsed()
	if err := n.InstallBinary(Binary{Name: "ping", Flash: 2148, RAM: 278}); err != nil {
		t.Fatal(err)
	}
	if n.FlashUsed() != before+2148 {
		t.Fatalf("flash accounting: %d", n.FlashUsed())
	}
	// Reinstall replaces, not accumulates.
	if err := n.InstallBinary(Binary{Name: "ping", Flash: 2200, RAM: 278}); err != nil {
		t.Fatal(err)
	}
	if n.FlashUsed() != before+2200 {
		t.Fatalf("reinstall accounting: %d", n.FlashUsed())
	}
	if got := n.Binaries(); len(got) != 1 || got[0] != "ping" {
		t.Fatalf("binaries = %v", got)
	}
	if b, ok := n.BinaryInfo("ping"); !ok || b.RAM != 278 {
		t.Fatalf("info = %+v ok=%v", b, ok)
	}
	if err := n.InstallBinary(Binary{Name: "", Flash: 1}); err == nil {
		t.Fatal("invalid binary accepted")
	}
	if err := n.InstallBinary(Binary{Name: "huge", Flash: FlashBytes}); !errors.Is(err, ErrNoFlash) {
		t.Fatalf("flash overflow: %v", err)
	}
}

func TestProcessLifecycle(t *testing.T) {
	_, n := testNode(t, 1, 0)
	n.InstallBinary(Binary{Name: "ping", Flash: 2148, RAM: 278})
	if _, err := n.StartProcess("nope"); !errors.Is(err, ErrNoSuchBinary) {
		t.Fatalf("err = %v", err)
	}
	ramBefore := n.RAMUsed()
	n.SysSetParamBuffer("192.168.0.2 round=1")
	p, err := n.StartProcess("ping")
	if err != nil {
		t.Fatal(err)
	}
	if p.State != Running || p.Binary != "ping" {
		t.Fatalf("proc = %+v", p)
	}
	if n.RAMUsed() != ramBefore+278 {
		t.Fatalf("RAM accounting: %d", n.RAMUsed())
	}
	if args := p.Args(); len(args) != 2 || args[0] != "192.168.0.2" || args[1] != "round=1" {
		t.Fatalf("args = %v", args)
	}
	if pids := n.Processes(); len(pids) != 1 || pids[0] != p.PID {
		t.Fatalf("pids = %v", pids)
	}
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
	if n.RAMUsed() != ramBefore {
		t.Fatal("RAM not refunded on exit")
	}
	if err := p.Exit(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double exit: %v", err)
	}
	if len(n.Processes()) != 0 {
		t.Fatal("process list not cleaned")
	}
}

func TestZeroOverheadWhenInactive(t *testing.T) {
	// The paper's efficiency goal: commands introduce zero extra
	// overhead when not activated. Installing a binary costs flash but
	// no RAM until started.
	_, n := testNode(t, 1, 0)
	ram := n.RAMUsed()
	n.InstallBinary(Binary{Name: "traceroute", Flash: 2820, RAM: 272})
	if n.RAMUsed() != ram {
		t.Fatal("inactive binary consumed RAM")
	}
}

func TestRAMExhaustion(t *testing.T) {
	_, n := testNode(t, 1, 0)
	n.InstallBinary(Binary{Name: "hog", Flash: 100, RAM: 1200})
	var procs []*Process
	for {
		p, err := n.StartProcess("hog")
		if err != nil {
			if !errors.Is(err, ErrNoRAM) {
				t.Fatalf("err = %v", err)
			}
			break
		}
		procs = append(procs, p)
	}
	if len(procs) == 0 || len(procs) > 3 {
		t.Fatalf("started %d 1.2KB processes in 4KB RAM", len(procs))
	}
	// Exiting frees room for another.
	procs[0].Exit()
	if _, err := n.StartProcess("hog"); err != nil {
		t.Fatalf("restart after exit: %v", err)
	}
}

func TestEmptyParamsYieldNoArgs(t *testing.T) {
	_, n := testNode(t, 1, 0)
	n.InstallBinary(Binary{Name: "p", Flash: 1, RAM: 1})
	n.SysSetParamBuffer("")
	p, _ := n.StartProcess("p")
	if p.Args() != nil {
		t.Fatalf("args = %v, want nil", p.Args())
	}
}

func TestEventLog(t *testing.T) {
	l := NewEventLog(3)
	l.Append(time.Second, "x", "dropped while disabled")
	if len(l.Entries()) != 0 {
		t.Fatal("disabled log recorded")
	}
	l.Enable()
	if !l.Enabled() {
		t.Fatal("Enable failed")
	}
	for i := 0; i < 5; i++ {
		l.Append(time.Duration(i)*time.Second, "tick", "event")
	}
	es := l.Entries()
	if len(es) != 3 {
		t.Fatalf("ring kept %d entries, want 3", len(es))
	}
	if es[0].At != 2*time.Second {
		t.Fatalf("oldest entry = %v, want 2s", es[0].At)
	}
	if l.Dropped() != 2 {
		t.Fatalf("dropped = %d", l.Dropped())
	}
	l.Disable()
	l.Append(9*time.Second, "x", "y")
	if len(l.Entries()) != 3 {
		t.Fatal("disabled log recorded")
	}
	l.Clear()
	if len(l.Entries()) != 0 || l.Dropped() != 0 {
		t.Fatal("clear failed")
	}
	if NewEventLog(0).Cap() != 64 {
		t.Fatal("default capacity wrong")
	}
}

func TestSysLogEvent(t *testing.T) {
	eng, n := testNode(t, 1, 0)
	n.Log().Enable()
	eng.Schedule(time.Second, func() {
		n.SysLogEvent("ping", "probe to %s", "192.168.0.2")
	})
	eng.Run()
	es := n.Log().Entries()
	if len(es) != 1 || es[0].Tag != "ping" || es[0].At != time.Second {
		t.Fatalf("entries = %v", es)
	}
	if es[0].String() == "" {
		t.Fatal("entry String empty")
	}
}

func TestProcStateString(t *testing.T) {
	if Running.String() != "running" || Exited.String() != "exited" {
		t.Fatal("state strings")
	}
}
