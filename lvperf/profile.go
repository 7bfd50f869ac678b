package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// modules are the repository packages a traced run reports a CPU share
// for; samples in any other liteview/internal package, and samples with
// no repository frame at all, count as "other".
var modules = []string{
	"serve", "journal", "shell", "core", "diagnose", "routing", "neighbor",
	"stack", "mac", "medium", "sim", "phys", "radio", "liteos", "gc", "other",
}

// cpuProfile is a load-phase CPU profile charged to modules.
type cpuProfile struct {
	total time.Duration
	by    map[string]time.Duration
}

func (p *cpuProfile) share(module string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.by[module]) / float64(p.total)
}

// attribute charges every sample of the profile at path to the
// innermost liteview/internal/<module> frame on its stack: runtime,
// standard-library and math frames count toward the repository frame
// that called them, and the garbage collector's background workers
// count as gc. The stacks come from `go tool pprof -traces`.
func attribute(path string) (*cpuProfile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces text: samples separated by dashed
// rules, each starting with its value and the innermost frame on one
// line, followed by one caller frame per line.
func parseTraces(out []byte) (*cpuProfile, error) {
	p := &cpuProfile{by: make(map[string]time.Duration)}
	var val time.Duration
	var frames []string
	flush := func() {
		if frames != nil {
			p.total += val
			p.by[chargeTo(frames)] += val
		}
		frames = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if frames == nil {
			// "      10ms   runtime.futex"
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a label line; pprof prints these before the value
			}
			val = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	return p, nil
}

// chargeTo names the module a stack (innermost frame first) is charged
// to.
func chargeTo(frames []string) string {
	const repo = "liteview/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, repo); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			for _, m := range modules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			return "gc"
		}
	}
	return "other"
}
