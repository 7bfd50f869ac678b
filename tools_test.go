package liteview

// End-to-end smoke tests: every example and command-line tool must
// build and run to completion on a fresh checkout. These use `go run`,
// so they exercise exactly what the README tells a new user to type.

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"liteview/internal/telemetry"
)

func runTool(t *testing.T, timeout time.Duration, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("go %s timed out after %v", strings.Join(args, " "), timeout)
	}
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are skipped in -short mode")
	}
	cases := []struct {
		path string
		want string
	}{
		{"./examples/quickstart", "statistics: sent=3"},
		{"./examples/hotspot", "pairwise RTT survey"},
		{"./examples/asymmetric", "most asymmetric link"},
		{"./examples/channelsurvey", "lowest power meeting"},
		{"./examples/lowpower", "projected lifetime"},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.path, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out := runTool(t, 3*time.Minute, "run", c.path)
			if !strings.Contains(out, c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

func TestToolsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("tools are skipped in -short mode")
	}
	t.Run("lvbench-one", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, 3*time.Minute, "run", "./cmd/lvbench", "-exp", "t3")
		if !strings.Contains(out, "check [PASS]") {
			t.Fatalf("output:\n%s", out)
		}
	})
	t.Run("lvtopo", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, 3*time.Minute, "run", "./cmd/lvtopo", "-nodes", "3", "-spacing", "20")
		if !strings.Contains(out, "audible directed links") {
			t.Fatalf("output:\n%s", out)
		}
	})
	t.Run("liteview-batch", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, 3*time.Minute, "run", "./cmd/liteview",
			"-nodes", "2", "-spacing", "5", "-warmup", "5s",
			"-c", "cd 192.168.0.1; ping 192.168.0.2 round=1")
		if !strings.Contains(out, "Received = 1") {
			t.Fatalf("output:\n%s", out)
		}
	})
	t.Run("healthcheck-healthy", func(t *testing.T) {
		t.Parallel()
		out := runTool(t, 3*time.Minute, "run", "./cmd/liteview",
			"-nodes", "3", "-spacing", "20", "-shadow", "0", "-asym", "0", "-c", "healthcheck")
		if !strings.Contains(out, "no problems found") {
			t.Fatalf("output:\n%s", out)
		}
	})
	// -trace picks the exporter from the extension; the event stream
	// reads back through the decoder lvtopo -live -replay uses.
	t.Run("liteview-trace-jsonl", func(t *testing.T) {
		t.Parallel()
		path := filepath.Join(t.TempDir(), "t.jsonl")
		runTool(t, 3*time.Minute, "run", "./cmd/liteview", "-nodes", "3", "-warmup", "2s",
			"-trace", path, "-c", "cd 192.168.0.1; ping 192.168.0.2")
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		events, err := telemetry.ReadJSONL(f)
		if err != nil {
			t.Fatal(err)
		}
		spans := 0
		for _, e := range events {
			if e.Layer == telemetry.LayerSpan {
				spans++
			}
		}
		if len(events) < 10 || spans == 0 {
			t.Fatalf("%d events, %d command spans; want a recorded ping", len(events), spans)
		}
	})
	// A crashed node must read as crashed whether or not the deployment
	// is duty-cycled: under LPL its radio must stay dark until reboot.
	crashedUnreachable := regexp.MustCompile(`(?m)^\s*192\.168\.0\.3\s+UNREACHABLE$`)
	for _, lpl := range []bool{false, true} {
		lpl := lpl
		name := "healthcheck-crash"
		args := []string{"run", "./cmd/liteview", "-nodes", "9"}
		if lpl {
			name += "-lpl"
			args = append(args, "-lpl")
		}
		args = append(args, "-c", "fault crash 192.168.0.3; healthcheck")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out := runTool(t, 3*time.Minute, args...)
			if !crashedUnreachable.MatchString(out) || !strings.Contains(out, "crashed-node: 192.168.0.3 ") {
				t.Fatalf("crashed 192.168.0.3 not reported unreachable and crashed:\n%s", out)
			}
		})
	}
}
