// Command lvbench regenerates the paper's evaluation: every table and
// figure plus the design-choice ablations, printed as aligned tables
// with shape checks.
//
//	lvbench                  # run everything, one worker per CPU
//	lvbench -exp f5          # one experiment
//	lvbench -seed 7 -csv     # alternate seed, CSV output
//	lvbench -parallel 1      # legacy sequential baseline
//	lvbench -json out.json   # machine-readable summary
//
// Output is byte-identical for every -parallel value (wall-clock
// readings aside; add -nowall to suppress those too): experiments fan
// out over a bounded worker pool but results are printed in experiment
// order, and every simulation owns its engine, medium, and RNG streams.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"liteview/internal/bench"
)

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment id (e1,f5,f6,f7,t1,t2,t3,d2..d7,chaos,recover,scale) or all")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		csv      = flag.Bool("csv", false, "emit CSV tables instead of aligned text")
		list     = flag.Bool("list", false, "list experiments and exit")
		trace    = flag.String("trace", "", "write per-scenario telemetry artifacts (JSONL + Chrome trace) into this directory")
		short    = flag.Bool("short", false, "run reduced-size experiment variants (smoke-test mode)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size (1 = sequential baseline, <=0 = GOMAXPROCS)")
		jsonPath = flag.String("json", "", "write a machine-readable run summary to this file")
		nowall   = flag.Bool("nowall", false, "suppress wall-clock readings inside experiment output (for byte-exact comparisons)")
		profile  = flag.String("profile", "", "write per-experiment CPU and heap profiles into this directory (forces -parallel 1)")
	)
	flag.Parse()
	opt := bench.Options{
		TraceDir:    *trace,
		Short:       *short,
		NoWallClock: *nowall,
		Workers:     *parallel,
		ProfileDir:  *profile,
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.All()
	} else {
		e, ok := bench.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "lvbench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(1)
		}
		exps = []bench.Experiment{e}
	}

	start := time.Now()
	outs := bench.RunAll(exps, *seed, opt)
	total := time.Since(start)

	failed := 0
	for _, o := range outs {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "lvbench: %s: %v\n", o.Exp.ID, o.Err)
			failed++
			continue
		}
		if *csv {
			fmt.Printf("# %s: %s\n", o.Res.ID, o.Res.Title)
			if o.Res.Table != nil {
				fmt.Print(o.Res.Table.CSV())
			}
		} else {
			fmt.Println(o.Res)
		}
		if !o.Res.Passed() {
			failed++
		}
	}

	if *jsonPath != "" {
		rep := bench.NewJSONReport(outs, *seed, opt, total)
		if err := rep.WriteJSONFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "lvbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "lvbench: %d experiment(s) failed their shape checks\n", failed)
		os.Exit(1)
	}
}
