package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"liteview/internal/telemetry"
)

// traceTo streams what rec records into the artifacts of the given stem,
// a JSONL event stream and a Chrome trace-event file, and returns the
// function that finishes both; without a trace directory it attaches
// nothing. Call finish on every exit path: when *err is nil it reports
// there the first failure, opening a file included. Artifact stems are
// unique per scenario, so concurrent experiments never write the same
// file; MkdirAll is safe to race.
func traceTo(opt Options, stem string, rec *telemetry.Recorder) func(err *error) {
	var errs []error
	var ends []func() error
	if opt.tracing() {
		errs = append(errs, os.MkdirAll(opt.TraceDir, 0o755))
		for _, out := range [...]struct {
			ext    string
			format func(io.Writer) (telemetry.Sink, func() error)
		}{{".jsonl", telemetry.NewJSONL}, {".trace.json", telemetry.NewChromeTrace}} {
			f, err := os.Create(filepath.Join(opt.TraceDir, stem+out.ext))
			if err != nil {
				errs = append(errs, err)
				continue
			}
			sink, end := out.format(f)
			rec.AddSink(sink)
			ends = append(ends, end, f.Close)
		}
	}
	return func(err *error) {
		for _, end := range ends {
			errs = append(errs, end())
		}
		if e := errors.Join(errs...); e != nil && *err == nil {
			*err = fmt.Errorf("telemetry artifacts: %w", e)
		}
	}
}
