package bench

import (
	"fmt"
	"time"

	"liteview/internal/core"
	"liteview/internal/fault"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/trace"
)

// Chaos runs the fault-injection experiment: the same management
// commands the paper evaluates, but executed while the deployment is
// failing underneath them. Each scenario deploys a fresh six-node line,
// scripts one fault class, runs a ping and a traceroute through it, and
// records whether the command terminated inside its window and what
// verdict it returned. The shape checks assert the robustness story:
// every command terminates, failures produce explicit verdicts instead
// of silence, a rebooted node answers again, and the whole experiment
// is deterministic in the seed.
func Chaos(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "CHAOS", Title: "command behaviour under injected faults (6-node line)"}
	r.Table = trace.NewTable("scenario", "command", "ok", "delay_ms", "verdict")

	type outcome struct {
		ok      bool
		delayMs float64
		verdict core.Verdict
	}
	// run deploys, scripts the scenario's faults, executes ping 1→2 and
	// traceroute 1→6, and returns both outcomes. With -trace set, the
	// whole scenario is recorded and exported under chaos-<slug>.
	run := func(slug string, script func(*deployment, *fault.Injector) error) (pingOut, trOut outcome, err error) {
		dep, err := lineDeployment(6, 22, seed, 0, 0, routing.DefaultConfig())
		if err != nil {
			return outcome{}, outcome{}, err
		}
		if opt.tracing() {
			rec := dep.tb.Telemetry()
			finish := traceTo(opt, "chaos-"+slug, rec)
			defer finish(&err)
			rec.Start()
		}
		inj := dep.tb.FaultInjector()
		if script != nil {
			if err := script(dep, inj); err != nil {
				return outcome{}, outcome{}, err
			}
		}
		p, perr := dep.ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 2, Length: 32})
		if p == nil {
			return outcome{}, outcome{}, fmt.Errorf("ping returned no output: %w", perr)
		}
		pingOut = outcome{ok: perr == nil && p.Verdict.Kind == core.VerdictOK, delayMs: ms(p.ResponseDelay), verdict: p.Verdict}
		t, terr := dep.ws.Traceroute(1, core.TrOptions{Dst: 6, Length: 32, RouterPort: routing.GeographicPort})
		if t == nil {
			return outcome{}, outcome{}, fmt.Errorf("traceroute returned no output: %w", terr)
		}
		trOut = outcome{ok: terr == nil && t.Verdict.Kind == core.VerdictReached, delayMs: ms(t.ResponseDelay), verdict: t.Verdict}
		return pingOut, trOut, nil
	}

	// Every scenario deploys its own line testbed, so the whole set
	// fans out over the worker pool; rows and checks are recorded in
	// declaration order below, keeping output identical to a
	// sequential run.
	crashScript := func(dep *deployment, inj *fault.Injector) error {
		_, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.NodeCrash, Node: 3})
		return err
	}
	scenarios := []struct {
		label  string
		slug   string
		script func(*deployment, *fault.Injector) error
	}{
		// Baseline: no faults; both commands succeed.
		{"baseline", "baseline", nil},
		// Crash: relay node 3 power-fails; the traceroute must name
		// the hop.
		{"crash relay 3", "crash-relay-3", crashScript},
		// Blackout: the 1↔2 link drops every frame; ping loses all
		// rounds with an explicit verdict rather than hanging.
		{"blackout 1-2", "blackout-1-2", func(dep *deployment, inj *fault.Injector) error {
			_, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.LinkBlackout, A: 1, B: 2})
			return err
		}},
		// Corrupt burst: node 2 corrupts 80% of received frames;
		// commands still terminate, loss is visible.
		{"corrupt-burst 2", "corrupt-burst-2", func(dep *deployment, inj *fault.Injector) error {
			_, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.CorruptBurst, Node: 2})
			return err
		}},
		// Partition: nodes 4..6 are cut off; the traceroute breaks at
		// the boundary.
		{"partition {4,5,6}", "partition-4-5-6", func(dep *deployment, inj *fault.Injector) error {
			_, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.Partition,
				Group: []phys.NodeID{4, 5, 6}})
			return err
		}},
		// Jam: every channel is jammed — even command delivery fails,
		// with an explicit verdict.
		{"jam all channels", "jam", func(dep *deployment, inj *fault.Injector) error {
			_, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.Jam})
			return err
		}},
		// Recovery: node 2 crashes for two seconds, reboots,
		// re-registers, and answers commands again.
		{"crash 2 + reboot", "crash-2-reboot", func(dep *deployment, inj *fault.Injector) error {
			if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.NodeCrash, Node: 2,
				Duration: 2 * time.Second}); err != nil {
				return err
			}
			dep.tb.Run(4 * time.Second) // crash window plus re-registration time
			return nil
		}},
		// Determinism: the crash scenario replayed with the same seed
		// must reproduce the exact delays and verdicts.
		{"crash replay", "crash-replay", crashScript},
	}
	outs := make([]struct{ p, t outcome }, len(scenarios))
	if err := opt.forEach(len(scenarios), func(i int) error {
		p, t, err := run(scenarios[i].slug, scenarios[i].script)
		if err != nil {
			return fmt.Errorf("%s: %w", scenarios[i].slug, err)
		}
		outs[i] = struct{ p, t outcome }{p, t}
		return nil
	}); err != nil {
		return nil, err
	}
	r.Trials = len(scenarios)
	for i, sc := range scenarios {
		if sc.slug == "crash-replay" {
			continue // determinism replay: checked below, not tabulated
		}
		r.Table.AddRow(sc.label, "ping 1→2", outs[i].p.ok, outs[i].p.delayMs, outs[i].p.verdict)
		r.Table.AddRow(sc.label, "traceroute 1→6", outs[i].t.ok, outs[i].t.delayMs, outs[i].t.verdict)
	}

	pBase, tBase := outs[0].p, outs[0].t
	r.check("baseline ping ok", pBase.ok, "verdict %q", pBase.verdict)
	r.check("baseline traceroute ok", tBase.ok, "verdict %q", tBase.verdict)

	pCrash, tCrash := outs[1].p, outs[1].t
	r.check("crash: ping past the crash still ok", pCrash.ok, "verdict %q", pCrash.verdict)
	r.check("crash: traceroute reports a broken path", tCrash.verdict == brokenAt(2, 3),
		"verdict %q", tCrash.verdict)

	// The blackout check covers both commands; its detail shows the ping.
	pBlack, tBlack := outs[2].p, outs[2].t
	r.check("blackout: ping fails explicitly",
		pBlack.verdict == core.Verdict{Kind: core.VerdictUnreachable, Node: 2, Lost: 2, Sent: 2} &&
			tBlack.verdict == brokenAt(1, 2),
		"verdict %q", pBlack.verdict)

	pCor := outs[3].p
	r.check("corrupt: ping terminates with a verdict", pCor.verdict.Kind != core.VerdictNone, "verdict %q", pCor.verdict)

	pPart, tPart := outs[4].p, outs[4].t
	r.check("partition: ping inside the main segment ok", pPart.ok, "verdict %q", pPart.verdict)
	r.check("partition: traceroute reports a broken path", tPart.verdict == brokenAt(3, 4),
		"verdict %q", tPart.verdict)

	pJam, tJam := outs[5].p, outs[5].t
	notDelivered := core.Verdict{Kind: core.VerdictNotDelivered, Node: 1}
	r.check("jam: ping fails explicitly", pJam.verdict == notDelivered, "verdict %q", pJam.verdict)
	r.check("jam: traceroute fails explicitly", tJam.verdict == notDelivered, "verdict %q", tJam.verdict)

	pRec, tRec := outs[6].p, outs[6].t
	r.check("recovery: rebooted node answers ping", pRec.ok, "verdict %q", pRec.verdict)
	r.check("recovery: traceroute crosses the rebooted node", tRec.ok, "verdict %q", tRec.verdict)

	pCrash2, tCrash2 := outs[7].p, outs[7].t
	r.check("determinism: same seed, same fault, same outcome",
		pCrash == pCrash2 && tCrash == tCrash2,
		"crash replay: ping %.3f/%.3f ms, traceroute %.3f/%.3f ms",
		pCrash.delayMs, pCrash2.delayMs, tCrash.delayMs, tCrash2.delayMs)

	r.note("every command above terminated inside its response window; failures are explicit verdicts, not hangs")
	return r, nil
}

// brokenAt is a traceroute's verdict when node did not answer at hop.
func brokenAt(hop int, node phys.NodeID) core.Verdict {
	return core.Verdict{Kind: core.VerdictNoAnswer, Node: node, Hop: hop}
}
