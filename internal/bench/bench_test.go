package bench

import (
	"strings"
	"testing"
)

// TestAllExperiments runs every regenerated experiment and requires all
// shape checks to pass — this is the repository's statement that the
// paper's qualitative results hold on the simulated substrate.
func TestAllExperiments(t *testing.T) {
	// The scale experiment's sharded row runs at 576 nodes here; the
	// real 10,000-node deployment is exercised by the lvbench -short
	// smoke.
	opt := Options{Short: testing.Short(), scaleBigSide: 24}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			res, err := exp.Run(42, opt)
			if err != nil {
				t.Fatalf("%s failed to run: %v", exp.ID, err)
			}
			for _, c := range res.Checks {
				if !c.Pass {
					t.Errorf("check %q failed: %s", c.Name, c.Detail)
				}
			}
			if out := res.String(); !strings.Contains(out, res.ID) {
				t.Error("rendering lost the experiment ID")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("f5"); !ok {
		t.Fatal("f5 missing")
	}
	if _, ok := ByID("zz"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "X", Title: "t"}
	r.check("a", true, "fine")
	if !r.Passed() {
		t.Fatal("all-pass result reported failure")
	}
	r.check("b", false, "broken %d", 7)
	if r.Passed() {
		t.Fatal("failing check unreported")
	}
	out := r.String()
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "broken 7") {
		t.Fatalf("rendering:\n%s", out)
	}
}

// TestExperimentsSeedStable spot-checks that an experiment is
// deterministic for a fixed seed.
func TestExperimentsSeedStable(t *testing.T) {
	a, err := Figure7(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure7(7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() != b.Table.CSV() {
		t.Fatalf("same seed, different tables:\n%s\nvs\n%s", a.Table.CSV(), b.Table.CSV())
	}
}

// TestTrialSeed pins the trial-seed schedule: experiments that average
// over independent trials all derive per-trial seeds through this one
// helper, so the schedule is part of the determinism contract.
func TestTrialSeed(t *testing.T) {
	if got := trialSeed(42, 0); got != 42 {
		t.Fatalf("trial 0 must run on the base seed, got %d", got)
	}
	if got := trialSeed(42, 3); got != 42+3000 {
		t.Fatalf("trialSeed(42, 3) = %d, want %d", got, 42+3000)
	}
	seen := map[uint64]bool{}
	for trial := 0; trial < 100; trial++ {
		s := trialSeed(7, trial)
		if seen[s] {
			t.Fatalf("trial seeds collide at trial %d (seed %d)", trial, s)
		}
		seen[s] = true
	}
}
