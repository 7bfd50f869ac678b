package main

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"liteview/internal/serve"
	"liteview/internal/shell"
)

// small shrinks a workload for tests: fewer tenants and one set-up.
// The deployments and scripts are the benchmark's own.
func small(w *workload, tenants int) *workload {
	c := *w
	c.tenants, c.setups = tenants, 1
	c.loops = min(c.loops, tenants)
	return &c
}

// testCases run each workload at a reduced size; grid-400's script
// rounds up to one pass over its 25 destinations.
var testCases = []struct {
	w    *workload
	size int
}{
	{small(fleet, 4), 2},
	{small(grid400, 1), 1},
	{small(lplWalk, 1), 30},
}

func runOnce(t *testing.T, w *workload, seed uint64, size int, trace bool) *result {
	t.Helper()
	res, err := run(options{w: w, seed: seed, size: size, trace: trace, dir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if len(res.malformed) > 0 {
		t.Fatalf("%s: malformed output: %v", w.name, res.malformed)
	}
	return res
}

// deterministic is what must repeat exactly between runs of one
// workload, seed and size, traced or not.
type deterministic struct {
	digest                 string
	attempted, failed      int
	events, tx, deliveries uint64
	journalBytes, simNs    int64
}

func detOf(r *result) deterministic {
	return deterministic{r.digest, r.attempted, r.failed, r.work.fired, r.work.med.Transmitted,
		r.work.med.Delivered, r.journalBytes, int64(r.work.now)}
}

// TestRunsRepeat checks that the output digest and the deterministic
// counters repeat exactly from run to run, and that a traced run does
// the same work as an untraced one.
func TestRunsRepeat(t *testing.T) {
	for _, tc := range testCases {
		t.Run(tc.w.name, func(t *testing.T) {
			a := runOnce(t, tc.w, 7, tc.size, false)
			b := runOnce(t, tc.w, 7, tc.size, false)
			c := runOnce(t, tc.w, 7, tc.size, true)
			if detOf(a) != detOf(b) {
				t.Errorf("untraced runs differ:\n%+v\n%+v", detOf(a), detOf(b))
			}
			if detOf(a) != detOf(c) {
				t.Errorf("traced run differs from untraced:\n%+v\n%+v", detOf(c), detOf(a))
			}
			if a.attempted < 10 || a.work.fired == 0 || a.work.med.Delivered == 0 || a.journalBytes == 0 {
				t.Errorf("run did no work: %+v", detOf(a))
			}
			if c.profile == nil || c.profile.total == 0 || len(c.spans) == 0 {
				t.Errorf("traced run recorded no profile or spans")
			}
		})
	}
}

// TestSecondSeed checks that another seed gives other inputs and
// still runs cleanly.
func TestSecondSeed(t *testing.T) {
	w := small(fleet, 2)
	a, b := runOnce(t, w, 1, 2, false), runOnce(t, w, 2, 2, false)
	if a.digest == b.digest {
		t.Errorf("seeds 1 and 2 produced the same output digest %s", a.digest)
	}
	if a.failed+b.failed != 0 {
		t.Errorf("failures: seed 1 %d, seed 2 %d", a.failed, b.failed)
	}
}

// TestServedMatchesDirect checks DESIGN §11's contract through the
// benchmark: one tenant's output served through lvserved equals a
// direct shell.NewForTestbed replay of the same script and seed.
func TestServedMatchesDirect(t *testing.T) {
	for _, tc := range testCases {
		t.Run(tc.w.name, func(t *testing.T) {
			const seed = 3
			res := runOnce(t, tc.w, seed, tc.size, false)
			for ti, got := range res.tenantDigests {
				name := tenantName(ti)
				var ph phases
				tb, ws, err := tc.w.build(serve.TenantSeed(seed, name), &ph)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				sh, err := shell.NewForTestbed(tb, ws, &out)
				if err != nil {
					t.Fatal(err)
				}
				// The set-up's first command runs before the load.
				if err := sh.Exec("pwd"); err != nil {
					t.Fatal(err)
				}
				var want uint64
				for _, sess := range tc.w.script(rand.New(rand.NewPCG(seed, uint64(ti))), tc.size) {
					for _, cmd := range sess {
						out.Reset()
						code := ""
						if err := sh.Exec(cmd.line); err != nil {
							code = serve.CodeCommand
						}
						want = digestStep(want, cmd.line, out.String(), sh.Cwd(), code)
					}
				}
				if got != want {
					t.Errorf("tenant %s: served digest %016x, direct replay %016x", name, got, want)
				}
			}
		})
	}
}

func TestCommandCheck(t *testing.T) {
	c := traceCmd(1, 5)
	cases := []struct {
		out, cwd, code string
		want           outcome
		bad            bool
	}{
		{"Traceroute statistics:\nVerdict: destination 5 reached in 4 hop(s)\n", nodePath(1), "", succeeded, false},
		{"Traceroute statistics:\nVerdict: path broke at hop 2\n", nodePath(1), "", degraded, false},
		{"", nodePath(1), serve.CodeCommand, failed, false},
		{"Reaching ...\n", nodePath(1), "", succeeded, true},
		{"Traceroute statistics:\nVerdict: destination 5 reached\n", "/", "", succeeded, true},
	}
	for _, tc := range cases {
		got, err := c.check(tc.out, tc.cwd, tc.code)
		if got != tc.want || (err != nil) != tc.bad {
			t.Errorf("check(%q, %q, %q) = %v, %v", tc.out, tc.cwd, tc.code, got, err)
		}
	}
}

func TestDeckDealsEveryCardOncePerPass(t *testing.T) {
	d := newDeck(rand.New(rand.NewPCG(1, 2)), idRange(1, 10))
	seen := make(map[int]int)
	for i := 0; i < 30; i++ {
		id := d.draw(3)
		if id == 3 {
			t.Fatalf("drew the excluded card")
		}
		seen[id]++
	}
	for id := 1; id <= 10; id++ {
		if id != 3 && (seen[id] < 3 || seen[id] > 4) {
			t.Errorf("card %d dealt %d times in 30 draws", id, seen[id])
		}
	}
}

func TestNodeNames(t *testing.T) {
	for id, want := range map[int]string{1: "192.168.0.1", 250: "192.168.0.250", 251: "192.168.1.1", 400: "192.168.1.150"} {
		if got := nodeName(id); got != want {
			t.Errorf("nodeName(%d) = %q, want %q", id, got, want)
		}
	}
}

const tracesSample = `File: lvperf
Type: cpu
-----------+-------------------------------------------------------
      10ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             liteview/internal/core.(*Workstation).onMessage
             liteview/internal/medium.(*Medium).deliver
             liteview/internal/serve.(*Tenant).loop
-----------+-------------------------------------------------------
      20ms   encoding/json.Unmarshal
             liteview/internal/serve.(*Client).Run
             main.drive
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      40ms   runtime.futex
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
      50ms   liteview/internal/testbed.(*Testbed).Run
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	p, err := parseTraces([]byte(tracesSample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"core": 10 * time.Millisecond, "serve": 20 * time.Millisecond,
		"gc": 30 * time.Millisecond, "other": 90 * time.Millisecond}
	if p.total != 150*time.Millisecond {
		t.Errorf("total %v, want 150ms", p.total)
	}
	for m, d := range want {
		if p.by[m] != d {
			t.Errorf("%s: %v, want %v", m, p.by[m], d)
		}
	}
	if _, err := parseTraces([]byte("File: x\n")); err == nil {
		t.Error("an empty profile parsed without error")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{ID: 1, Name: "client.run", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "runner.run", Start: 2 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Name: "runner.run", Start: 5 * ms, End: 8 * ms},
	}
	self := selfTimes(spans)
	if self["client.run"] != 4*ms || self["runner.run"] != 7*ms {
		t.Errorf("self times %v", self)
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2, 5}
	if q := quantile(ds, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(ds, 0.9); q != 4 {
		t.Errorf("p90 %v", q)
	}
	if q := quantile(nil, 0.9); q != 0 {
		t.Errorf("empty %v", q)
	}
}
