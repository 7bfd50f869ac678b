package testbed_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"liteview/internal/diagnose"
	"liteview/internal/medium"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/testbed"
)

// The LPL duty-cycle equivalence pins digest what a duty-cycled
// deployment does, radio by radio and millisecond by millisecond. The
// digests were recorded when every busy node re-checked its sleep every
// WakeWindow; the MAC now schedules only the checks that can succeed,
// and a node must still sleep, wake and crash at exactly the same
// instants.

// stateSampler hashes every watched radio's state once per simulated
// millisecond, from a self-rescheduling engine event. each, when set,
// runs after every sample.
type stateSampler struct {
	eng    *sim.Engine
	radios []*radio.Radio
	h      hash.Hash64
	buf    []byte
	each   func()
	tick   func()
}

func newStateSampler(eng *sim.Engine, radios []*radio.Radio) *stateSampler {
	s := &stateSampler{eng: eng, radios: radios, h: fnv.New64a()}
	s.tick = func() {
		s.buf = s.buf[:0]
		for _, r := range s.radios {
			s.buf = append(s.buf, byte(r.State()))
		}
		s.h.Write(s.buf)
		if s.each != nil {
			s.each()
		}
		s.eng.After(time.Millisecond, s.tick)
	}
	eng.After(time.Millisecond, s.tick)
	return s
}

// digest folds the medium's counters and extra into the radio samples.
func (s *stateSampler) digest(med *medium.Medium, extra string) string {
	fmt.Fprintf(s.h, "%+v\n%s", med.Stats(), extra)
	return fmt.Sprintf("%016x", s.h.Sum64())
}

func lplOptions(seed uint64, beacon sim.Time) testbed.Options {
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma, opt.AsymSigma = 0, 0
	opt.LPL = true
	opt.BeaconPeriod = beacon
	return opt
}

func radiosOf(tb *testbed.Testbed) []*radio.Radio {
	var out []*radio.Radio
	for _, n := range tb.Nodes {
		out = append(out, n.Radio())
	}
	return out
}

// crashRebootDigest runs a 4-node LPL line at 10 m with 1 s beacons for
// 60 s. Whenever node 2 has been awake for more than 8 ms (longer than
// a wake window, so it is busy: mostly lingering after a neighbor's
// beacon) it crashes, and reboots after delay; crashes are at least
// 500 ms apart.
func crashRebootDigest(t *testing.T, delay sim.Time) string {
	t.Helper()
	tb, err := testbed.Line(4, 10, lplOptions(29, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	victim := tb.Node(1)
	s := newStateSampler(tb.Eng, radiosOf(tb))
	awake, crashes := 0, 0
	var next sim.Time
	s.each = func() {
		if !victim.Alive() || victim.Radio().State() == radio.Off {
			awake = 0
			return
		}
		awake++
		if now := tb.Eng.Now(); awake > 8 && now >= next {
			victim.Crash()
			tb.Eng.After(delay, victim.Reboot)
			crashes++
			next, awake = now+500*time.Millisecond, 0
		}
	}
	tb.WarmUp(60 * time.Second)
	if crashes < 50 {
		t.Fatalf("reboot after %v: only %d crashes", delay, crashes)
	}
	return s.digest(tb.Med, fmt.Sprint(crashes))
}

// buildLPLTestbed is lvperf's lpl-walk deployment: the paper's 30-node
// testbed (5×6 at 8 m) under LPL with 10 s beacons, geographic
// forwarding and LiteView installed.
func buildLPLTestbed(t *testing.T) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.Grid(5, 6, 8, lplOptions(1, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	return tb
}

// healthCheckDigest warms the 30-node LPL testbed up for 60 s and runs
// one health check from a workstation at node 9.
func healthCheckDigest(t *testing.T) string {
	t.Helper()
	tb := buildLPLTestbed(t)
	s := newStateSampler(tb.Eng, radiosOf(tb))
	tb.WarmUp(60 * time.Second)
	ws, err := tb.NewWorkstation(tb.Node(8).Position())
	if err != nil {
		t.Fatal(err)
	}
	s.radios = append(s.radios, ws.Radio())
	var targets []diagnose.Target
	for _, n := range tb.Nodes {
		targets = append(targets, diagnose.Target{ID: n.ID(), Name: n.Name(), Pos: n.Position()})
	}
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	return s.digest(tb.Med, rep.String())
}

func TestLPLDutyCycleEquivalence(t *testing.T) {
	t.Run("crash-reboot", func(t *testing.T) {
		want := map[sim.Time]string{
			2 * time.Millisecond:  "1f33d7b9756036a4",
			5 * time.Millisecond:  "7605abb71ca7964e",
			9 * time.Millisecond:  "c6c6eea127b5a6ec",
			15 * time.Millisecond: "654089ac8d57e8a2",
			30 * time.Millisecond: "60603e1311fbab8d",
		}
		for _, d := range []sim.Time{2, 5, 9, 15, 30} {
			d *= time.Millisecond
			if got := crashRebootDigest(t, d); got != want[d] {
				t.Errorf("reboot after %v: digest %s, want %s", d, got, want[d])
			}
		}
	})
	t.Run("testbed-healthcheck", func(t *testing.T) {
		// Re-pinned from 0cd912907f802de2 when the workstation stopped
		// duty-cycling (a listening base mote acks a reply's first copy),
		// then from 0d6bc88718880084 when the check became one health
		// query per node (15 s of virtual time instead of 60 s).
		const want = "4f7c75e6d1afb253"
		if got := healthCheckDigest(t); got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})
}

// TestLPLWarmUpEventBudget pins how many events the 30-node LPL
// testbed's 60 s warm-up fires, so sleep checks that cannot succeed do
// not creep back into the schedule.
func TestLPLWarmUpEventBudget(t *testing.T) {
	tb := buildLPLTestbed(t)
	tb.WarmUp(60 * time.Second)
	// Re-checking every busy node each WakeWindow fired 145,313.
	const want = 86120
	if got := tb.Eng.Fired(); got != want {
		t.Fatalf("60 s LPL warm-up fired %d events, want %d", got, want)
	}
}
