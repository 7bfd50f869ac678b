package bench

import (
	"os"
	"path/filepath"

	"liteview/internal/telemetry"
)

// writeTelemetry exports rec's captured events under the given artifact
// stem, as both JSONL and a Chrome trace-event file. Artifact stems are
// unique per scenario, so concurrent experiments never write the same
// file; MkdirAll is safe to race.
func writeTelemetry(opt Options, stem string, rec *telemetry.Recorder) error {
	traceDir := opt.TraceDir
	if traceDir == "" || rec == nil {
		return nil
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	events := rec.Events()
	jf, err := os.Create(filepath.Join(traceDir, stem+".jsonl"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(jf, events); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	cf, err := os.Create(filepath.Join(traceDir, stem+".trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(cf, events); err != nil {
		cf.Close()
		return err
	}
	return cf.Close()
}
