package bench

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"
)

// JSONExperiment is one experiment's machine-readable summary.
type JSONExperiment struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Pass is true when the experiment ran and every shape check held.
	Pass bool `json:"pass"`
	// Error holds the run error, if the experiment failed to run at all.
	Error string `json:"error,omitempty"`
	// WallMS is the real time the experiment cost inside the runner.
	WallMS float64 `json:"wall_ms"`
	// Trials counts the independent simulations the experiment
	// aggregated (≥1).
	Trials int `json:"trials"`
	// Checks and FailedChecks count the shape assertions.
	Checks       int `json:"checks"`
	FailedChecks int `json:"failed_checks"`
	// Rows is the regenerated table's row count.
	Rows int `json:"rows"`
}

// JSONReport is the machine-readable result of one lvbench run,
// emitted by -json so the perf trajectory (wall-clock per experiment,
// worker scaling) is tracked across commits in BENCH_lvbench.json.
type JSONReport struct {
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Short   bool   `json:"short"`
	// GoMaxProcs is the effective runtime.GOMAXPROCS at report time —
	// recorded by NewJSONReport itself so the committed file reflects
	// the machine the numbers were measured on, not a caller-supplied
	// constant.
	GoMaxProcs  int              `json:"gomaxprocs"`
	WallMSTotal float64          `json:"wall_ms_total"`
	Pass        bool             `json:"pass"`
	Experiments []JSONExperiment `json:"experiments"`
}

// NewJSONReport summarises a RunAll result set. total is the whole
// run's wall time (with Workers > 1 it is less than the sum of the
// per-experiment times — that difference is the parallel speedup).
func NewJSONReport(outcomes []Outcome, seed uint64, opt Options, total time.Duration) JSONReport {
	rep := JSONReport{
		Seed:        seed,
		Workers:     opt.withGate().Workers,
		Short:       opt.Short,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		WallMSTotal: float64(total.Nanoseconds()) / 1e6,
		Pass:        true,
	}
	for _, o := range outcomes {
		je := JSONExperiment{
			ID:     o.Exp.ID,
			WallMS: float64(o.Wall.Nanoseconds()) / 1e6,
			Trials: 1,
		}
		if o.Err != nil {
			je.Error = o.Err.Error()
		}
		if o.Res != nil {
			je.Title = o.Res.Title
			je.Checks = len(o.Res.Checks)
			for _, c := range o.Res.Checks {
				if !c.Pass {
					je.FailedChecks++
				}
			}
			if o.Res.Trials > 0 {
				je.Trials = o.Res.Trials
			}
			if o.Res.Table != nil {
				je.Rows = o.Res.Table.Rows()
			}
		}
		je.Pass = o.Passed()
		if !je.Pass {
			rep.Pass = false
		}
		rep.Experiments = append(rep.Experiments, je)
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func (rep JSONReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteJSONFile writes the report to path.
func (rep JSONReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
