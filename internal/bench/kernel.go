package bench

import (
	"runtime"
	"time"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/trace"
)

// This file is the kernel row of the perf trajectory: it measures the
// engine's event structure (a hierarchical timer wheel) against
// sim.RefQueue, the plain binary min-heap the wheel is checked against,
// on the dominant scheduling pattern, and pins the frame path's
// steady-state allocation rate. Timing readings are run-to-run noise
// and the allocation counter (runtime.MemStats.Mallocs) is process-wide,
// so both are meaningful only in a sequential run: under
// Options.NoWallClock or a parallel runner (Workers != 1) the measured
// columns collapse to placeholders — the same degradation as the scale
// experiment's wall-clock columns — keeping parallel-runner output
// byte-identical and the shape checks deterministic.

// lplPeriod paces the schedule the wheel was built for: tickers all
// rescheduling one period ahead of a moving now — LPL wakeups and
// beacon intervals at network scale.
const lplPeriod = 100 * time.Millisecond

// runWheelTicker drives a real engine through the ticker pattern and
// returns ns per event.
func runWheelTicker(tickers, events int) float64 {
	eng := sim.NewEngine(11)
	fired := 0
	fns := make([]func(), tickers)
	for i := range fns {
		i := i
		fns[i] = func() {
			fired++
			if fired >= events {
				eng.Stop()
				return
			}
			eng.After(lplPeriod, fns[i])
		}
	}
	for i := range fns {
		eng.After(sim.Time(lplPeriod)*sim.Time(i+1)/sim.Time(tickers), fns[i])
	}
	start := time.Now()
	eng.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(events)
}

// runHeapTicker drives the reference heap through the identical
// pattern (pop earliest, reschedule one period out) and returns ns per
// event. It exercises only the data structure — no callbacks — which
// flatters the heap; the wheel must win anyway.
func runHeapTicker(tickers, events int) float64 {
	var h sim.RefQueue
	var seq uint64
	for i := 0; i < tickers; i++ {
		seq++
		h.Push(sim.Time(lplPeriod)*sim.Time(i+1)/sim.Time(tickers), seq)
	}
	start := time.Now()
	for fired := 0; fired < events; fired++ {
		when, _ := h.Pop()
		seq++
		h.Push(when+lplPeriod, seq)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(events)
}

// allocsPerOp measures the average heap allocations per call to f,
// serialized on one CPU the way testing.AllocsPerRun does (without
// dragging package testing into the lvbench binary).
func allocsPerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// framePathRig wires two real nodes one hop apart (the alloc-guard
// test's topology) and returns a closure performing one send+delivery.
func framePathRig(dst phys.NodeID) (func(), error) {
	eng := sim.NewEngine(7)
	med := medium.New(eng, phys.DefaultModel(7))
	mkNode := func(id phys.NodeID, pos phys.Position) (*stack.Stack, error) {
		rad, err := radio.New(17)
		if err != nil {
			return nil, err
		}
		var st *stack.Stack
		m, err := mac.New(eng, med, rad, id, pos, mac.DefaultConfig(),
			func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
		if err != nil {
			return nil, err
		}
		st = stack.New(eng, m)
		return st, nil
	}
	tx, err := mkNode(1, phys.Position{})
	if err != nil {
		return nil, err
	}
	rx, err := mkNode(2, phys.Position{X: 5})
	if err != nil {
		return nil, err
	}
	if err := rx.Subscribe(10, func(*stack.Packet, phys.NodeID, medium.RxInfo) {}); err != nil {
		return nil, err
	}
	pkt := &stack.Packet{Port: 10, Origin: 1, Dst: 2, TTL: 4, Data: make([]byte, 32)}
	return func() {
		if err := tx.Send(pkt, dst, mac.TypeData, nil); err != nil {
			panic(err)
		}
		eng.Run()
	}, nil
}

// Kernel measures the simulation kernel itself: wheel-vs-heap event
// throughput on the LPL/beacon pattern and allocations per steady-state
// frame delivery.
func Kernel(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "KERNEL", Title: "sim-kernel: timer wheel vs reference heap, frame-path allocations"}
	tickers, events := 4096, 2_000_000
	if opt.Short {
		tickers, events = 1024, 200_000
	}
	r.Table = trace.NewTable("bench", "variant", "size", "ops", "ns_op", "allocs_op")
	measure := !opt.NoWallClock && opt.Workers == 1

	var wheelNs, heapNs float64
	if measure {
		wheelNs = runWheelTicker(tickers, events)
		heapNs = runHeapTicker(tickers, events)
		r.Table.AddRow("schedule-lpl", "wheel", tickers, events, wheelNs, 0.0)
		r.Table.AddRow("schedule-lpl", "ref-heap", tickers, events, heapNs, "-")
	} else {
		r.Table.AddRow("schedule-lpl", "wheel", tickers, events, "-", "-")
		r.Table.AddRow("schedule-lpl", "ref-heap", tickers, events, "-", "-")
	}

	const allocRuns = 200
	for _, fp := range []struct {
		name string
		dst  phys.NodeID
	}{
		{"frame-broadcast", phys.Broadcast},
		{"frame-unicast-acked", 2},
	} {
		step, err := framePathRig(fp.dst)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 16; i++ {
			step() // warm pools and link caches before measuring
		}
		if measure {
			start := time.Now()
			allocs := allocsPerOp(allocRuns, step)
			ns := float64(time.Since(start).Nanoseconds()) / float64(allocRuns+1)
			r.Table.AddRow(fp.name, "one hop", 2, allocRuns, ns, allocs)
			r.check(fp.name+" steady state is allocation-free", allocs == 0,
				"%.2f allocs per delivery", allocs)
		} else {
			r.Table.AddRow(fp.name, "one hop", 2, allocRuns, "-", "-")
			r.check(fp.name+" steady state is allocation-free", true,
				"alloc readings suppressed (needs a sequential wall-clock run)")
		}
	}

	if measure {
		r.check("wheel outpaces reference heap on the LPL pattern", wheelNs < heapNs,
			"wheel %.1f ns/event vs heap %.1f ns/event (%.2fx)", wheelNs, heapNs, heapNs/wheelNs)
		r.note("wheel run includes full engine dispatch; the heap run is the bare structure")
	} else {
		r.check("wheel outpaces reference heap on the LPL pattern", true,
			"timing readings suppressed (needs a sequential wall-clock run)")
	}
	return r, nil
}
