package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// renderOutcomes flattens a RunAll result set to the text a user sees:
// every rendered result (including check lines) plus the CSV form of
// every table, in experiment order.
func renderOutcomes(t *testing.T, outs []Outcome) string {
	t.Helper()
	var sb strings.Builder
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Exp.ID, o.Err)
		}
		sb.WriteString(o.Res.String())
		if o.Res.Table != nil {
			sb.WriteString(o.Res.Table.CSV())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// readDir returns the sorted file names and their contents for every
// regular file in dir.
func readDir(t *testing.T, dir string) (names []string, contents map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	contents = make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		contents[e.Name()] = data
	}
	sort.Strings(names)
	return names, contents
}

// TestParallelDeterminism is the runner's core regression: a run fanned
// over eight workers must produce byte-identical output — rendered
// tables, check lines, and every telemetry artifact (JSONL + Chrome
// trace) — to the legacy sequential baseline. NoWallClock collapses
// the scale experiment's real-time readings, the only legitimately
// nondeterministic output.
func TestParallelDeterminism(t *testing.T) {
	seqDir := t.TempDir()
	parDir := t.TempDir()
	// scaleBigSide shrinks the scale experiment's 10k sharded row to a
	// 576-node one: worker invariance at full 10,000-node scale is
	// pinned by internal/medium's TestShardedScaleWorkerInvariance, so
	// this test buys nothing by re-simulating it twice.
	base := Options{Short: true, NoWallClock: true, scaleBigSide: 24}

	seqOpt := base
	seqOpt.TraceDir = seqDir
	seqOpt.Workers = 1
	seqOuts := RunAll(All(), 42, seqOpt)

	parOpt := base
	parOpt.TraceDir = parDir
	parOpt.Workers = 8
	parOuts := RunAll(All(), 42, parOpt)

	seqText := renderOutcomes(t, seqOuts)
	parText := renderOutcomes(t, parOuts)
	if seqText != parText {
		t.Errorf("parallel output diverged from sequential output:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			seqText, parText)
	}

	seqNames, seqFiles := readDir(t, seqDir)
	parNames, parFiles := readDir(t, parDir)
	if strings.Join(seqNames, ",") != strings.Join(parNames, ",") {
		t.Fatalf("artifact sets differ:\nworkers=1: %v\nworkers=8: %v", seqNames, parNames)
	}
	if len(seqNames) == 0 {
		t.Fatal("tracing enabled but no artifacts were written")
	}
	for _, name := range seqNames {
		if !bytes.Equal(seqFiles[name], parFiles[name]) {
			t.Errorf("artifact %s differs between workers=1 and workers=8", name)
		}
	}
}

// TestRunAllOrderAndOutcomes checks the aggregation contract: outcomes
// come back in input order regardless of completion order, with wall
// time and pass/fail populated.
func TestRunAllOrderAndOutcomes(t *testing.T) {
	exps := All()
	outs := RunAll(exps, 42, Options{Short: true, Workers: 4, scaleBigSide: 24})
	if len(outs) != len(exps) {
		t.Fatalf("got %d outcomes for %d experiments", len(outs), len(exps))
	}
	for i, o := range outs {
		if o.Exp.ID != exps[i].ID {
			t.Fatalf("outcome %d is %s, want %s — order not preserved", i, o.Exp.ID, exps[i].ID)
		}
		if !o.Passed() {
			t.Errorf("%s failed under the parallel runner: err=%v", o.Exp.ID, o.Err)
		}
		if o.Wall <= 0 {
			t.Errorf("%s: wall time not recorded", o.Exp.ID)
		}
	}
}

// TestRunAllConcurrentEngines drives at least four simulations
// concurrently through the runner. Its real assertion is made by the
// race detector (CI runs this package under -race): no experiment may
// share mutable state — engines, media, telemetry buses, RNG streams —
// with another.
func TestRunAllConcurrentEngines(t *testing.T) {
	exps := []Experiment{}
	for _, id := range []string{"e1", "f5", "f7", "t2", "t3", "d2"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		exps = append(exps, e)
	}
	outs := RunAll(exps, 7, Options{Short: true, Workers: len(exps)})
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("%s: %v", o.Exp.ID, o.Err)
		}
	}
}

// TestForEachInlineFallback pins the nested fan-out guarantee: when the
// worker gate is saturated, forEach runs jobs inline instead of
// queueing, so nested forEach calls (experiment level × trial level)
// cannot deadlock and total concurrency stays bounded.
func TestForEachInlineFallback(t *testing.T) {
	opt := Options{Workers: 2}.withGate()
	hits := make([]int, 64)
	err := opt.forEach(8, func(i int) error {
		// Nested fan-out from inside a worker: must complete even with
		// every gate slot taken.
		return opt.forEach(8, func(j int) error {
			hits[i*8+j]++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for idx, n := range hits {
		if n != 1 {
			t.Fatalf("job %d ran %d times", idx, n)
		}
	}
}

// TestJSONReport checks the machine-readable summary produced for
// lvbench -json.
func TestJSONReport(t *testing.T) {
	e, ok := ByID("f7")
	if !ok {
		t.Fatal("f7 missing")
	}
	outs := RunAll([]Experiment{e}, 42, Options{Short: true, Workers: 1})
	rep := NewJSONReport(outs, 42, Options{Short: true, Workers: 1}, outs[0].Wall)
	if rep.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Fatalf("GoMaxProcs = %d, want the effective %d", rep.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if !rep.Pass || len(rep.Experiments) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	je := rep.Experiments[0]
	if je.ID != "f7" || !je.Pass || je.Checks == 0 || je.Rows == 0 || je.Trials < 1 {
		t.Fatalf("experiment summary: %+v", je)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seed": 42`, `"workers": 1`, `"id": "f7"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, buf.String())
		}
	}
}
