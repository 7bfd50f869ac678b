package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"liteview/internal/cli"
	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

// A workload is one deployment plus the fixed command script the client
// loops drive through it. Every run of a workload with the same seed and
// size simulates identical work; only host time varies.
type workload struct {
	name string
	// tenants is the number of lvserved tenants; loops the number of
	// closed-loop clients (each owns tenants i with i%loops == loop).
	tenants, loops int
	// setups is how many complete daemon set-ups one run times; setup_s
	// is their median.
	setups int
	// build assembles one tenant's deployment; it times its build and
	// warm-up phases into ph.
	build func(seed uint64, ph *phases) (*testbed.Testbed, *core.Workstation, error)
	// script returns one tenant's load as sessions of commands. size is
	// the fixed work unit (see sizeFor).
	script func(rng *rand.Rand, size int) [][]command
	// perSecond converts --seconds into the size passed to script: it is
	// calibrated so one unit is about one wall second of load on a
	// two-core x86 host, and it is a pure function of --seconds, so the
	// work never depends on how fast the host is.
	perSecond int
	// minSize keeps at least 100 commands per run, so ten samples lie
	// beyond p90.
	minSize int
}

// sizeFor is the fixed amount of work for a --seconds value.
func (w *workload) sizeFor(seconds int) int {
	return max(seconds*w.perSecond, w.minSize)
}

// phases records one tenant's set-up phases, measured around the
// public testbed calls.
type phases struct {
	start         time.Time
	build, warmup time.Duration
}

// command is one scripted command and what its response must show.
type command struct {
	line string
	kind string
	// cwd is the session directory the response must report.
	cwd string
	// form lists substrings a well-formed output of this command
	// contains; missing one makes the run incorrect.
	form []string
	// ok lists substrings that show the network delivered (destination
	// reached, no round lost). A command without them still succeeded —
	// reporting loss is what a diagnosis tool is for — but it is counted
	// as degraded.
	ok []string
}

// outcome classifies a response.
type outcome int

const (
	succeeded outcome = iota
	degraded          // ran, and reported loss in the network
	failed            // carried an error code
)

// check classifies a response; a non-nil error means the output is
// malformed, which makes the run incorrect.
func (c command) check(output, cwd, code string) (outcome, error) {
	if code != "" {
		return failed, nil
	}
	if cwd != c.cwd {
		return succeeded, fmt.Errorf("%q: cwd %q, want %q", c.line, cwd, c.cwd)
	}
	for _, f := range c.form {
		if !strings.Contains(output, f) {
			return succeeded, fmt.Errorf("%q: output lacks %q:\n%s", c.line, f, output)
		}
	}
	for _, f := range c.ok {
		if !strings.Contains(output, f) {
			return degraded, nil
		}
	}
	return succeeded, nil
}

// nodeName is the testbed's management name for node id: 250 hosts
// per /24, so node 251 is 192.168.1.1.
func nodeName(id int) string { return fmt.Sprintf("192.168.%d.%d", (id-1)/250, (id-1)%250+1) }

func nodePath(id int) string { return fmt.Sprintf("/sn%02d/%s", id, nodeName(id)) }

// Command constructors. at is the node the session is logged into.

func cdCmd(id int) command {
	return command{line: "cd " + nodeName(id), kind: "cd", cwd: nodePath(id)}
}

func cdRoot() command { return command{line: "cd /", kind: "cd", cwd: "/"} }

func pwdCmd(at int) command {
	return command{line: "pwd", kind: "pwd", cwd: nodePath(at), form: []string{nodePath(at) + "\n"}}
}

func lsCmd(at int) command {
	return command{line: "ls", kind: "ls", cwd: nodePath(at), form: []string{"apps/", "proc/", "dev/"}}
}

func nbrCmd(at int) command {
	return command{line: "neighborsetup list", kind: "neighborsetup", cwd: nodePath(at),
		form: []string{"Neighbors of " + nodeName(at)}}
}

// pingCmd is a one-round ping: one radio hop, or routed over
// geographic forwarding (port 10).
func pingCmd(at, dst int, routed bool) command {
	c := command{line: "ping " + nodeName(dst), kind: "ping", cwd: nodePath(at),
		form: []string{"Ping statistics:\nPackets = 1\n"}, ok: []string{"Received = 1\n"}}
	if routed {
		c.line += " port=10"
	}
	return c
}

func traceCmd(at, dst int) command {
	return command{line: "traceroute " + nodeName(dst), kind: "traceroute", cwd: nodePath(at),
		form: []string{"Traceroute statistics:"},
		ok:   []string{fmt.Sprintf("Verdict: destination %d reached", dst)}}
}

// healthCmd is a healthcheck issued from the root directory.
func healthCmd() command {
	return command{line: "healthcheck", kind: "healthcheck", cwd: "/",
		form: []string{"health check: 30 node(s) visited"}}
}

// pick returns a uniformly chosen element of ids other than not.
func pick(rng *rand.Rand, ids []int, not int) int {
	for {
		if id := ids[rng.IntN(len(ids))]; id != not {
			return id
		}
	}
}

// deck deals ids in seeded order, each once per pass, so runs of the
// same size visit the same targets whatever the seed.
type deck struct {
	rng       *rand.Rand
	ids, left []int
}

func newDeck(rng *rand.Rand, ids []int) *deck { return &deck{rng: rng, ids: ids} }

// draw deals the next id other than not; a card equal to not is
// swapped for another still in the pass.
func (d *deck) draw(not int) int {
	if len(d.left) == 0 {
		d.left = append(d.left, d.ids...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	last := len(d.left) - 1
	if d.left[last] == not && last > 0 {
		j := d.rng.IntN(last)
		d.left[last], d.left[j] = d.left[j], d.left[last]
	}
	id := d.left[last]
	d.left = d.left[:last]
	if id == not {
		return d.draw(not)
	}
	return id
}

// idRange lists the node ids lo..hi.
func idRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// attachAll attaches the four routing protocols lvserved ships with.
func attachAll(tb *testbed.Testbed) error {
	for _, attach := range []func() error{
		func() error { return tb.AttachGeographic(routing.DefaultConfig()) },
		func() error { return tb.AttachFlooding(routing.DefaultConfig()) },
		func() error { return tb.AttachTree(1, routing.DefaultConfig()) },
		func() error { return tb.AttachOnDemand(routing.DefaultConfig()) },
	} {
		if err := attach(); err != nil {
			return err
		}
	}
	return nil
}

// managed builds a deployment the way lvserved's tenant factory does —
// topology, protocols, LiteView, warm-up, workstation — timing the
// build and warm-up phases.
func managed(ph *phases, mk func() (*testbed.Testbed, error), attach func(*testbed.Testbed) error,
	warm time.Duration, ws phys.Position) (*testbed.Testbed, *core.Workstation, error) {
	ph.start = time.Now()
	tb, err := mk()
	if err != nil {
		return nil, nil, err
	}
	if err := attach(tb); err != nil {
		return nil, nil, err
	}
	if _, err := tb.InstallLiteView(); err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	tb.WarmUp(warm)
	ph.build, ph.warmup = t1.Sub(ph.start), time.Since(t1)
	w, err := tb.NewWorkstation(ws)
	return tb, w, err
}

func geographicOnly(tb *testbed.Testbed) error { return tb.AttachGeographic(routing.DefaultConfig()) }

// fleet is lvserved as shipped: 64 tenants (the default MaxTenants)
// built like cmd/lvserved builds them, served to two client loops
// running lvctl -c style sessions round-robin.
var fleet = &workload{
	name:    "fleet",
	tenants: 64, loops: 2, setups: 5,
	build: func(seed uint64, ph *phases) (*testbed.Testbed, *core.Workstation, error) {
		// lvserved's deployment flags at their defaults: a 9-node line
		// at 20 m, 1 dB shadowing, 1.5 dB asymmetry, 20 s warm-up.
		var dep cli.DeploymentFlags
		dep.Register(flag.NewFlagSet("lvserved", flag.ContinueOnError))
		dep.Seed = seed
		return managed(ph, dep.Build, attachAll, dep.Warmup, phys.Position{})
	},
	script: func(rng *rand.Rand, size int) [][]command {
		all := idRange(1, 9)
		sessions := make([][]command, size)
		for i := range sessions {
			at := 1 + rng.IntN(2)
			// A plain ping is one radio hop: stay within two line hops.
			near := pick(rng, idRange(max(1, at-2), at+2), at)
			sessions[i] = []command{
				cdCmd(at),
				pingCmd(at, near, false),
				lsCmd(at),
				pingCmd(at, pick(rng, all, at), true),
				traceCmd(at, pick(rng, all, at)),
				pwdCmd(at),
				nbrCmd(at),
				cdRoot(),
			}
		}
		return sessions
	},
	perSecond: 12, minSize: 1,
}

// grid400 is the scale experiment's deployment: a 20×20 grid at 14 m,
// no shadowing, geographic forwarding, 10 s warm-up, workstation at
// (−2, −2). One session runs the whole script.
var grid400 = &workload{
	name:    "grid-400",
	tenants: 1, loops: 1, setups: 3,
	build: func(seed uint64, ph *phases) (*testbed.Testbed, *core.Workstation, error) {
		opt := testbed.DefaultOptions(seed)
		opt.ShadowSigma, opt.AsymSigma = 0, 0
		return managed(ph, func() (*testbed.Testbed, error) { return testbed.Grid(20, 20, 14, opt) },
			geographicOnly, 10*time.Second, phys.Position{X: -2, Y: -2})
	},
	script: func(rng *rand.Rand, size int) [][]command {
		// The four nodes in the workstation's range: (0,0), (14,0),
		// (0,14), (14,14).
		entry := []int{1, 2, 21, 22}
		// Destinations: every fourth column of every fourth row, 25 nodes
		// spread over the whole field. Each pass of 5 blocks sends one
		// traceroute and one routed ping to each, in seeded order, so
		// every run routes over the same set of paths.
		var targets []int
		for r := 1; r < 20; r += 4 {
			for c := 1; c < 20; c += 4 {
				targets = append(targets, r*20+c+1)
			}
		}
		trs, pings := newDeck(rng, targets), newDeck(rng, targets)
		var cmds []command
		for b := 0; len(cmds) < size || b%5 != 0; b++ {
			at := entry[(b+rng.IntN(4))%4]
			cmds = append(cmds, cdCmd(at))
			for k := 0; k < 5; k++ {
				cmds = append(cmds, traceCmd(at, trs.draw(at)), pingCmd(at, pings.draw(at), true))
			}
		}
		return [][]command{cmds}
	},
	perSecond: 25, minSize: 110,
}

// lplWalk is the paper's 30-node testbed (5×6 at 8 m) duty-cycled with
// low-power listening and 10 s beacons. Every 25th command is a
// healthcheck, which walks the workstation to every node.
var lplWalk = &workload{
	name:    "lpl-walk",
	tenants: 1, loops: 1, setups: 5,
	build: func(seed uint64, ph *phases) (*testbed.Testbed, *core.Workstation, error) {
		opt := testbed.DefaultOptions(seed)
		opt.ShadowSigma, opt.AsymSigma = 0, 0
		opt.LPL = true
		opt.BeaconPeriod = 10 * time.Second
		return managed(ph, func() (*testbed.Testbed, error) { return testbed.Grid(5, 6, 8, opt) },
			geographicOnly, 60*time.Second, lplPos(lplHome))
	},
	script: func(rng *rand.Rand, size int) [][]command {
		// The operator stands at node 9, where a healthcheck issued from
		// the root ends its walk (it visits nodes in name order), so
		// every period starts from the same place whatever the seed.
		logins := newDeck(rng, within(lplPos(lplHome), 16))
		targets := newDeck(rng, idRange(1, 30))
		var cmds []command
		for len(cmds) < size {
			// One period of 25 commands: four logins sharing the 19
			// node commands of lplMix, then the walk.
			var at int
			for i, kind := range lplMix {
				if i%5 == 0 {
					at = logins.draw(0)
					cmds = append(cmds, cdCmd(at))
				}
				switch kind {
				case 'p':
					cmds = append(cmds, pingCmd(at, targets.draw(at), false))
				case 'r':
					cmds = append(cmds, pingCmd(at, targets.draw(at), true))
				case 't':
					cmds = append(cmds, traceCmd(at, targets.draw(at)))
				case 'n':
					cmds = append(cmds, nbrCmd(at))
				}
			}
			cmds = append(cmds, cdRoot(), healthCmd())
		}
		return [][]command{cmds}
	},
	perSecond: 72, minSize: 100,
}

// lplMix is one lpl-walk period's node commands: one-hop ping (p),
// routed ping (r), traceroute (t) and neighborsetup list (n).
const lplMix = "pprtpnpprtpnpprtpnp"

// lplHome is the node where the lpl-walk operator stands.
const lplHome = 9

// lplPos is node id's position in the 5×6 grid at 8 m.
func lplPos(id int) phys.Position {
	return phys.Position{X: float64((id-1)%6) * 8, Y: float64((id-1)/6) * 8}
}

// within lists the testbed nodes at most r meters from pos.
func within(pos phys.Position, r float64) []int {
	var out []int
	for id := 1; id <= 30; id++ {
		p := lplPos(id)
		if math.Hypot(p.X-pos.X, p.Y-pos.Y) <= r {
			out = append(out, id)
		}
	}
	return out
}

var workloads = []*workload{fleet, grid400, lplWalk}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
