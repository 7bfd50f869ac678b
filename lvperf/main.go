// Command lvperf is LiteView's end-to-end benchmark. It starts an
// in-process lvserved (serve.New plus Serve on a loopback listener),
// drives it with the client lvctl uses (serve.Dial, Client.Run) from
// closed-loop clients running a fixed, seeded command script, and
// reports what an operator waits for — command latency, throughput,
// simulated seconds per wall second, set-up time, memory — plus, in a
// separate traced run, counters, spans and a CPU profile split by
// layer. See README.md for the workloads and the layer map.
//
//	bash lvperf/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: fleet, grid-400 or lpl-walk")
		seed    = flag.Uint64("seed", 1, "tenant seed base and script seed")
		seconds = flag.Int("seconds", 10, "work size: the script is sized to about this many wall seconds on a two-core host")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics from counters, spans and a CPU profile")
		out     = flag.String("out", ".bench_build/lvperf", "directory for journals, profiles and span dumps")
	)
	flag.Parse()
	w := workloadNamed(*name)
	switch {
	case w == nil:
		fatalf("unknown workload %q", *name)
	case *seconds < 1:
		fatalf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		fatalf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	o := options{w: w, seed: *seed, size: w.sizeFor(*seconds), trace: *trace == 1, dir: *out}
	res, err := run(o)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if o.trace {
		path := filepath.Join(o.dir, fmt.Sprintf("%s-seed%d.spans.json", w.name, o.seed))
		if err := writeSpans(path, res.spans); err != nil {
			fatalf("writing spans: %v", err)
		}
	}
	for _, m := range res.malformed {
		fmt.Fprintln(os.Stderr, "lvperf: malformed output:", m)
	}
	res.describe(os.Stdout, o)

	metrics := res.endToEnd()
	if o.trace {
		// The traced run's end-to-end figures, against an untraced
		// run's, give the tracing overhead.
		b, _ := json.Marshal(metrics) // plain numbers always marshal
		fmt.Printf("# end-to-end %s\n", b)
		metrics = res.perLayer()
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.malformed) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lvperf: "+format+"\n", args...)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd is what an operator sees, measured with tracing off.
func (r *result) endToEnd() map[string]metric {
	load := r.loadWall.Seconds()
	return map[string]metric{
		"setup_s":          {median(r.setups).Seconds(), "s"},
		"cmd_p50_ms":       {ms(quantile(r.client, 0.50)), "ms"},
		"cmd_p90_ms":       {ms(quantile(r.client, 0.90)), "ms"},
		"cmds_per_s":       {float64(r.attempted) / load, "1/s"},
		"sim_s_per_wall_s": {r.work.now.Seconds() / load, "s/s"},
		"max_rss_mb":       {r.maxRSS, "MiB"},
	}
}

// perLayer is the traced run's attribution. Each metric names the
// end-to-end metric it should move in README.md.
func (r *result) perLayer() map[string]metric {
	wk := r.work
	n := float64(r.attempted)
	var clientSum, runnerSum, hcSum time.Duration
	over := make([]time.Duration, len(r.client))
	byKind := make(map[string][]time.Duration)
	for i := range r.client {
		over[i] = r.client[i] - r.runner[i]
		clientSum += r.client[i]
		runnerSum += r.runner[i]
		byKind[r.kinds[i]] = append(byKind[r.kinds[i]], r.runner[i])
		if r.kinds[i] == "healthcheck" {
			hcSum += r.runner[i]
		}
	}
	m := map[string]metric{
		"serve.session_open_ms":       {ms(median(r.opens)), "ms"},
		"serve.overhead_ms":           {ms(median(over)), "ms"},
		"serve.overhead_share":        {ratio(float64(clientSum-runnerSum), float64(clientSum)), "ratio"},
		"journal.bytes_per_cmd":       {float64(r.journalBytes) / n, "B"},
		"shell.exec_ms":               {ms(median(r.runner)), "ms"},
		"core.ping_ms":                {ms(median(byKind["ping"])), "ms"},
		"core.traceroute_ms":          {ms(median(byKind["traceroute"])), "ms"},
		"core.reliable_retx_ratio":    {ratio(float64(wk.rel.Retransmissions), float64(wk.rel.DataSent)), "ratio"},
		"diagnose.healthcheck_share":  {ratio(float64(hcSum), float64(runnerSum)), "ratio"},
		"sim.events":                  {float64(wk.fired), "count"},
		"sim.ns_per_event":            {ratio(float64(runnerSum), float64(wk.fired)), "ns"},
		"medium.tx_frames":            {float64(wk.med.Transmitted), "count"},
		"medium.deliveries":           {float64(wk.med.Delivered), "count"},
		"medium.delivery_ratio":       {ratio(float64(wk.med.Delivered), float64(wk.med.Delivered+wk.med.Corrupted+wk.med.MissedNotListening)), "ratio"},
		"medium.ns_per_delivery":      {ratio(float64(r.profile.by["medium"]), float64(wk.med.Delivered)), "ns"},
		"mac.frames_sent":             {float64(wk.macSent), "count"},
		"mac.retry_ratio":             {ratio(float64(wk.macFrameRetries), float64(wk.macSentData)), "ratio"},
		"mac.backoffs_per_frame":      {ratio(float64(wk.macBackoffRetries), float64(wk.macSent)), "ratio"},
		"neighbor.beacons":            {float64(wk.macBeacons), "count"},
		"stack.overheard_ratio":       {ratio(float64(wk.stackOverheard), float64(wk.stackDelivered+wk.stackOverheard)), "ratio"},
		"routing.forwarded":           {float64(wk.routeForwarded), "count"},
		"routing.dropped":             {float64(wk.routeDropped), "count"},
		"setup.build_ms":              {ms(median(r.builds)), "ms"},
		"setup.warmup_ms":             {ms(median(r.warmups)), "ms"},
		"runtime.alloc_bytes_per_cmd": {float64(r.allocBytes) / n, "B"},
		"runtime.gc_cycles":           {float64(r.gcCycles), "count"},
	}
	for _, mod := range modules {
		m["cpu."+mod+"_share"] = metric{r.profile.share(mod), "ratio"}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + time.Duration((pos-float64(i))*float64(s[i+1]-s[i]))
}

// describe prints the run's context as '#' lines ahead of the result:
// the environment, the deterministic counters and digest that repeat
// exactly for a workload, seed and size, and per-kind latencies.
func (r *result) describe(f *os.File, o options) {
	env := map[string]any{
		"workload":    o.w.name,
		"seed":        o.seed,
		"size":        o.size,
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"journal_fs":  fsType(o.dir),
		"tenants":     o.w.tenants,
		"clients":     o.w.loops,
		"setups":      len(r.setups),
		"samples":     len(r.client),
		"sessions":    len(r.opens),
		"load_wall_s": r.loadWall.Seconds(),
	}
	det := map[string]any{
		"digest":                r.digest,
		"attempted":             r.attempted,
		"failed":                r.failed,
		"degraded":              r.degraded,
		"sim.events":            r.work.fired,
		"medium.tx_frames":      r.work.med.Transmitted,
		"medium.deliveries":     r.work.med.Delivered,
		"journal.bytes_per_cmd": float64(r.journalBytes) / float64(r.attempted),
	}
	kinds := make(map[string]map[string]float64)
	byKind := make(map[string][]time.Duration)
	for i, k := range r.kinds {
		byKind[k] = append(byKind[k], r.client[i])
	}
	for k, ds := range byKind {
		kinds[k] = map[string]float64{"n": float64(len(ds)), "p50_ms": ms(quantile(ds, 0.5)), "p90_ms": ms(quantile(ds, 0.9))}
	}
	for _, l := range []struct {
		tag string
		v   any
	}{{"env", env}, {"deterministic", det}, {"kinds", kinds}, {"tail", r.tailMix()}} {
		b, _ := json.Marshal(l.v) // maps of plain values always marshal
		fmt.Fprintf(f, "# %s %s\n", l.tag, b)
	}
}

// tailMix reports which command kinds the samples around p50 and p90
// belong to, and how far the latency jumps across each window. A
// percentile that falls in the gap between two kinds jumps by a large
// factor; the script mix is chosen so that neither does.
func (r *result) tailMix() map[string]any {
	idx := make([]int, len(r.client))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.client[idx[a]] < r.client[idx[b]] })
	out := make(map[string]any)
	for _, q := range []float64{0.5, 0.9} {
		n := len(idx)
		lo, hi := int(float64(n)*(q-0.02)), min(n-1, int(float64(n)*(q+0.02)))
		seen := make(map[string]int)
		for _, i := range idx[lo : hi+1] {
			seen[r.kinds[i]]++
		}
		out[fmt.Sprintf("p%.0f", q*100)] = map[string]any{
			"kinds": seen,
			"jump":  ratio(float64(r.client[idx[hi]]), float64(r.client[idx[lo]])),
		}
	}
	return out
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, so a journal on a slow or
// remote disk shows next to the numbers it slowed.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
