package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// Options carries run-wide configuration into every experiment. It
// replaces the former SetTraceDir/SetShort package globals: with the
// parallel runner, several experiments execute concurrently, and any
// shared mutable configuration would be a data race. An Options value
// is immutable once a run starts; experiments only read it.
type Options struct {
	// TraceDir, when non-empty, makes experiments that support it
	// record cross-layer telemetry and write per-scenario artifacts
	// (<dir>/<stem>.jsonl and <dir>/<stem>.trace.json). Recording is
	// non-perturbing, so results are identical with or without it.
	TraceDir string
	// Short selects the reduced-size experiment variants (fewer nodes,
	// shorter warmups) used as CI smoke tests.
	Short bool
	// NoWallClock suppresses real-time readings (the scale experiment's
	// wall-clock throughput columns), leaving only virtual-time output.
	// The parallel determinism regression sets it so a -parallel N run
	// renders byte-identical to -parallel 1.
	NoWallClock bool
	// Workers bounds how many independent simulations run concurrently:
	// 1 is the legacy sequential baseline, 0 or below means
	// runtime.GOMAXPROCS(0). Determinism does not depend on Workers —
	// every engine is private to one simulation and results are
	// aggregated in experiment/trial order.
	Workers int
	// ProfileDir, when non-empty, writes per-experiment CPU and heap
	// profiles (<dir>/<id>.cpu.pprof, <dir>/<id>.heap.pprof). CPU
	// profiling is process-global, so a profiled run is forced to
	// Workers=1 — one experiment on the CPU at a time is also what makes
	// the profile attributable.
	ProfileDir string
	// gate is the run-wide worker pool, shared by the experiment-level
	// fan-out and the per-trial fan-outs inside experiments so total
	// concurrency stays bounded by Workers even when they nest.
	gate chan struct{}
	// scaleBigSide overrides the sharded scale deployment's grid side.
	// Test hook only: the bench unit tests shrink the 10,000-node row so
	// the full suite stays fast; lvbench itself always runs the real
	// thing (the 10k smoke is the point of -short there).
	scaleBigSide int
}

// tracing reports whether artifact recording is enabled.
func (o Options) tracing() bool { return o.TraceDir != "" }

// withGate resolves the Workers default and allocates the shared worker
// gate. The gate holds Workers-1 slots: the caller's own goroutine is
// the final worker (forEach falls back to running jobs inline when the
// gate is full), so total concurrency equals Workers.
func (o Options) withGate() Options {
	if o.ProfileDir != "" {
		o.Workers = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > 1 && o.gate == nil {
		o.gate = make(chan struct{}, o.Workers-1)
	}
	return o
}

// forEach runs fn for every index in [0, n), concurrently when the
// options carry a worker gate, and returns the lowest-indexed error.
// Callers keep determinism by writing results into slot i and reducing
// in index order afterwards — completion order never matters. When the
// gate is saturated (or Workers is 1) jobs run inline on the calling
// goroutine, which both bounds concurrency and rules out pool
// deadlocks for nested forEach calls.
func (o Options) forEach(n int, fn func(i int) error) error {
	if n == 1 || o.Workers <= 1 || o.gate == nil {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case o.gate <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-o.gate }()
				errs[i] = fn(i)
			}(i)
		default:
			errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Outcome is one experiment's result as produced by RunAll, including
// the real time the run cost (virtual-time results live in Res).
type Outcome struct {
	Exp  Experiment
	Res  *Result
	Err  error
	Wall time.Duration
}

// Passed reports whether the experiment ran and every shape check held.
func (o Outcome) Passed() bool { return o.Err == nil && o.Res != nil && o.Res.Passed() }

// RunAll executes the given experiments over a bounded worker pool of
// opt.Workers goroutines and returns their outcomes in input order.
//
// The determinism contract (DESIGN.md §10): every simulation engine,
// radio medium, telemetry bus, and RNG stream is private to one
// experiment run, seeds are derived only from (seed, experiment,
// trial), and aggregation is by index — so the outcomes, the rendered
// tables, and any telemetry artifacts are byte-identical for every
// value of opt.Workers. Only wall-clock readings differ; pass
// NoWallClock to suppress those.
func RunAll(exps []Experiment, seed uint64, opt Options) []Outcome {
	opt = opt.withGate()
	outs := make([]Outcome, len(exps))
	// Experiments return their errors in outs; forEach cannot fail here.
	_ = opt.forEach(len(exps), func(i int) error {
		start := time.Now()
		res, err := runProfiled(exps[i], seed, opt)
		outs[i] = Outcome{Exp: exps[i], Res: res, Err: err, Wall: time.Since(start)}
		return nil
	})
	return outs
}

// runProfiled runs one experiment, bracketing it with CPU profiling and
// a post-run heap snapshot when opt.ProfileDir is set. Profiling never
// masks the experiment's own result: a profile I/O failure surfaces
// only if the experiment itself succeeded.
func runProfiled(exp Experiment, seed uint64, opt Options) (*Result, error) {
	if opt.ProfileDir == "" {
		return exp.Run(seed, opt)
	}
	if err := os.MkdirAll(opt.ProfileDir, 0o755); err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	cpu, err := os.Create(filepath.Join(opt.ProfileDir, exp.ID+".cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	res, runErr := exp.Run(seed, opt)
	pprof.StopCPUProfile()
	profErr := cpu.Close()
	heap, err := os.Create(filepath.Join(opt.ProfileDir, exp.ID+".heap.pprof"))
	if err == nil {
		runtime.GC() // fresh statistics: profile live objects, not garbage
		if werr := pprof.Lookup("heap").WriteTo(heap, 0); werr != nil && profErr == nil {
			profErr = werr
		}
		if cerr := heap.Close(); cerr != nil && profErr == nil {
			profErr = cerr
		}
	} else if profErr == nil {
		profErr = err
	}
	if runErr == nil && profErr != nil {
		return res, fmt.Errorf("writing profiles: %w", profErr)
	}
	return res, runErr
}
