// Command lvtopo prints a deployment's radio map: node placements and
// the predicted quality of every link (received power, RSSI register,
// LQI, packet reception rate), before any packet flows. Deployment
// planners use it to pick spacings and power levels; it is also how the
// repository documents what its propagation model predicts.
//
//	lvtopo -topo line -nodes 9 -spacing 20 -power 31
//
// With -live the predicted map gives way to an observed one: a fleet
// view folded from cross-layer telemetry — per-node up/crashed/breaker
// state, per-link delivery/ETX/PRR as the neighbor tables estimate
// them, active faults, and recent command verdicts. The stream can come
// from three places:
//
//	lvtopo -live -replay trace.jsonl            # recorded JSONL trace
//	lvtopo -live -addr 127.0.0.1:7117 -tenant a # streamed off lvserved
//	lvtopo -live                                # in-process simulation
//
// Replay renders a frame each time the virtual clock crosses a -step
// boundary, deterministically. The daemon mode re-renders every
// -refresh of wall time until -for elapses or the stream ends; watching
// is zero-perturbation, so the tenant's simulation is byte-identical
// with or without lvtopo attached. The in-process mode builds the
// deployment from the topology flags, runs the built-in all-layer
// script, and renders a frame after each command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"liteview/internal/cli"
	"liteview/internal/fleet"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/serve"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
	"liteview/internal/trace"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvtopo:", err)
	os.Exit(1)
}

func main() {
	var dep cli.DeploymentFlags
	dep.Register(flag.CommandLine)
	var (
		power  = flag.Int("power", radio.MaxPowerLevel, "transmit power level (3..31)")
		frame  = flag.Int("frame", 48, "frame size in bytes for PRR prediction")
		minPRR = flag.Float64("minprr", 0.01, "hide links below this predicted PRR")

		live    = flag.Bool("live", false, "render the observed fleet view instead of the predicted radio map")
		replay  = flag.String("replay", "", "live: fold a recorded telemetry JSONL trace instead of a live stream")
		addr    = flag.String("addr", "", "live: stream telemetry off this lvserved address")
		tenant  = flag.String("tenant", "default", "live: tenant to watch on -addr")
		step    = flag.Duration("step", 5*time.Second, "live -replay: render a frame per this much virtual time")
		refresh = flag.Duration("refresh", time.Second, "live -addr: re-render every this much wall time")
		runFor  = flag.Duration("for", 30*time.Second, "live -addr: stop after this long")
	)
	flag.Parse()

	if *live {
		switch {
		case *replay != "":
			if err := replayView(*replay, *step); err != nil {
				fatal(err)
			}
		case *addr != "":
			if err := streamView(*addr, *tenant, *refresh, *runFor); err != nil {
				fatal(err)
			}
		default:
			if err := localView(dep); err != nil {
				fatal(err)
			}
		}
		return
	}

	tb, err := dep.Build()
	if err != nil {
		fatal(err)
	}

	fmt.Println("Nodes:")
	pos := trace.NewTable("id", "name", "path", "x_m", "y_m")
	for _, n := range tb.Nodes {
		pos.AddRow(int(n.ID()), n.Name(), n.Path(), n.Position().X, n.Position().Y)
	}
	fmt.Println(pos)

	txDBm := radio.PowerDBm(*power)
	fmt.Printf("Links at power level %d (%.1f dBm), %d-byte frames:\n", *power, txDBm, *frame)
	links := trace.NewTable("from", "to", "dist_m", "rx_dBm", "RSSI", "LQI", "PRR")
	for _, a := range tb.Nodes {
		for _, b := range tb.Nodes {
			if a.ID() == b.ID() {
				continue
			}
			rx := tb.Model.ReceivedPower(txDBm, a.ID(), b.ID(), a.Position(), b.Position())
			if rx < radio.SensitivityDBm {
				continue
			}
			snr := tb.Model.SNR(rx)
			prr := phys.PRR(snr, *frame)
			if prr < *minPRR {
				continue
			}
			links.AddRow(int(a.ID()), int(b.ID()),
				a.Position().Distance(b.Position()), rx,
				radio.RSSIRegister(rx), radio.LQI(snr), prr)
		}
	}
	fmt.Println(links)
	fmt.Printf("%d audible directed links\n", links.Rows())
}

// replayView folds a recorded JSONL trace, printing a frame whenever
// the virtual clock crosses a step boundary and a final frame at the
// end. Fully deterministic: same trace, same bytes.
func replayView(path string, step time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return err
	}
	st := fleet.NewState()
	var next sim.Time
	if step > 0 {
		next = sim.Time(step)
	}
	frames := 0
	for i := range events {
		if step > 0 && events[i].At >= next {
			fmt.Printf("--- frame %d ---\n%s", frames, st.Render())
			frames++
			for next <= events[i].At {
				next += sim.Time(step)
			}
		}
		st.Apply(events[i])
	}
	fmt.Printf("--- final ---\n%s", st.Render())
	return nil
}

// streamView watches a tenant's telemetry off a daemon and re-renders
// the folded view on a wall-clock cadence.
func streamView(addr, tenant string, refresh, runFor time.Duration) error {
	c, err := serve.Dial(addr, tenant)
	if err != nil {
		return err
	}
	defer c.Close()
	st := fleet.NewState()
	nextDraw := time.Now()
	frames := 0
	draw := func() {
		fmt.Printf("--- frame %d ---\n%s", frames, st.Render())
		frames++
	}
	// The duration rides in the spec, so the server ends the stream even
	// if no frame ever arrives to prompt this side.
	err = c.Watch(serve.WatchSpec{ForMs: runFor.Milliseconds()}, func(line string, dropped uint64) bool {
		e, perr := telemetry.ParseJSONLine([]byte(line))
		if perr == nil {
			st.Apply(e)
		}
		if now := time.Now(); now.After(nextDraw) {
			draw()
			nextDraw = now.Add(refresh)
		}
		return true
	})
	draw()
	return err
}

// localView builds the deployment in-process, runs the built-in
// all-layer script with a subscription attached, and renders a frame
// after every command — the self-contained demo of the live pipeline.
func localView(dep cli.DeploymentFlags) error {
	tb, err := dep.BuildManaged()
	if err != nil {
		return err
	}
	sh, err := dep.Session(tb, io.Discard)
	if err != nil {
		return err
	}
	sub := sh.Telemetry().Subscribe(telemetry.Filter{}, 0)
	defer sub.Close()

	first, last := tb.Node(0).Name(), tb.Node(len(tb.Nodes)-1).Name()
	st := fleet.NewState()
	script := []string{
		"cd " + first,
		"ping " + last + " round=2 length=32 port=10",
		"traceroute " + last + " port=10",
		"health",
	}
	for i, line := range script {
		if err := sh.Exec(line); err != nil {
			fmt.Fprintf(os.Stderr, "lvtopo: %s: %v\n", line, err)
		}
		for _, e := range sub.Poll(0) {
			st.Apply(e)
		}
		fmt.Printf("--- after %q (frame %d) ---\n%s", line, i, st.Render())
	}
	if d := sub.Dropped(); d > 0 {
		fmt.Printf("(%d events dropped by the view's subscription)\n", d)
	}
	return nil
}
