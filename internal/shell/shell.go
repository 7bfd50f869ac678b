// Package shell provides the LiteView user interface: an extension of
// the LiteOS interactive shell. The deployment is mounted as a Unix-like
// file tree (each node is a directory such as /sn01/192.168.0.1); the
// user cd's into a node — "logging into" it — and runs management
// commands there. Output formats follow the paper's sample transcripts.
package shell

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"liteview/internal/core"
	"liteview/internal/diagnose"
	"liteview/internal/fault"
	"liteview/internal/liteos"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
)

// Shell is one interactive management session.
type Shell struct {
	ws      *core.Workstation
	tb      *testbed.Testbed
	out     io.Writer
	cwd     string // "/" or a node path
	curName string // name of the node logged into, "" at the root
	// byName holds the testbed's nodes sorted by name, the order ls and
	// healthcheck walk them in.
	byName []*liteos.Node
	// inj is the testbed's fault injector, which the fault command drives.
	inj *fault.Injector
	// writeErr latches the first output-write failure of the command in
	// progress. With a network-backed writer a dead peer surfaces here,
	// and Exec reports it instead of silently dropping output.
	writeErr error
}

// ErrWrite reports that a command's output could not be written to the
// session's writer. With a network-backed session this is the "operator
// hung up" signal: the command may have run to completion on the
// deployment, but its output never reached the user.
var ErrWrite = errors.New("shell: session output write failed")

// NewForTestbed creates a session over a deployed testbed, with the
// testbed's fault injector enabling the fault command.
func NewForTestbed(tb *testbed.Testbed, ws *core.Workstation, out io.Writer) (*Shell, error) {
	if tb == nil || ws == nil || out == nil {
		return nil, errors.New("shell: nil dependency")
	}
	byName := slices.Clone(tb.Nodes)
	slices.SortFunc(byName, func(a, b *liteos.Node) int { return strings.Compare(a.Name(), b.Name()) })
	return &Shell{ws: ws, tb: tb, out: out, cwd: "/", byName: byName, inj: tb.FaultInjector()}, nil
}

// Telemetry returns the recorder of the session's deployment, creating
// it on first use.
func (s *Shell) Telemetry() *telemetry.Recorder { return s.tb.Telemetry() }

// Cwd returns the current directory.
func (s *Shell) Cwd() string { return s.cwd }

// CurrentNode returns the node the session is logged into and whether
// one is selected.
func (s *Shell) CurrentNode() (phys.NodeID, bool) {
	if s.curName == "" {
		return 0, false
	}
	return s.mustID(s.curName), true
}

func (s *Shell) mustID(name string) phys.NodeID {
	n, ok := s.tb.ByName(name)
	if !ok {
		return 0
	}
	return n.ID()
}

// SetOutput redirects subsequent command output to w — the programmatic
// session API: a service holding one long-lived shell per tenant points
// the output at a fresh per-command buffer before each Exec.
func (s *Shell) SetOutput(w io.Writer) error {
	if w == nil {
		return errors.New("shell: nil output writer")
	}
	s.out = w
	return nil
}

func (s *Shell) printf(format string, args ...any) {
	if s.writeErr != nil {
		return // the writer is already known dead; don't spam it
	}
	if _, err := fmt.Fprintf(s.out, format, args...); err != nil {
		s.writeErr = err
	}
}

// Exec parses and runs one command line. A failure to write the
// command's output is a session error too: it surfaces as an
// ErrWrite-wrapping error (joined with the command's own error when
// both occurred), never silently dropped output.
func (s *Shell) Exec(line string) error {
	s.writeErr = nil
	err := s.exec(line)
	if s.writeErr != nil {
		werr := fmt.Errorf("%w: %v", ErrWrite, s.writeErr)
		if err == nil {
			return werr
		}
		return errors.Join(err, werr)
	}
	return err
}

// exec dispatches one parsed command line. Blank lines and lines
// starting with # are no-ops, so a script file can be fed in whole.
func (s *Shell) exec(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "pwd":
		s.printf("%s\n", s.cwd)
		return nil
	case "ls":
		return s.ls(args)
	case "cd":
		return s.cd(args)
	case "help":
		s.help()
		return nil
	case "ping":
		return s.ping(args)
	case "traceroute":
		return s.traceroute(args)
	case "neighborsetup":
		return s.neighborSetup(args)
	case "power":
		return s.power(args)
	case "channel":
		return s.channel(args)
	case "log":
		return s.logCmd(args)
	case "survey":
		return s.survey()
	case "healthcheck":
		return s.healthcheck()
	case "health":
		return s.health()
	case "stats":
		return s.stats(args)
	case "energy":
		return s.energy()
	case "fault":
		return s.fault(args)
	case "trace":
		return s.trace(args)
	default:
		return fmt.Errorf("shell: unknown command %q (try help)", cmd)
	}
}

func (s *Shell) help() {
	s.printf(`LiteView commands:
  pwd                         print the current directory
  ls [dir]                    list nodes (at /) or the node's file tree
  cd <node-path|name|/ >      log into a node / back to the root
  power [level]               view or set the radio power level (3..31)
  channel [ch]                view or set the radio channel (11..26)
  neighborsetup list          show the kernel neighbor table
  neighborsetup blacklist add|remove <name|id>
  neighborsetup update period=<ms>
  stats [medium|reset]        link/stack counters and routing state;
                              medium-wide counters; reset zeroes them
  trace on|off                start or pause the cross-layer telemetry recorder
  trace dump [count]          newest recorded events as JSONL (1024 kept)
  trace summary               per-layer event counts of the recording
  trace spans                 per-command span summary (newest 32 listed)
  energy                      battery account and lifetime estimate
  log on|off|show [count]     control / read the node's event log
  survey                      broadcast radio query to all nodes in range
  healthcheck                 walk every node and diagnose the deployment
  health                      self-healing view: suspect links and command
                              circuit-breaker states
  ping <name|id> [round=N] [length=B] [port=P]
  traceroute <name|id> [round=N] [length=B] [port=P]
  fault list                  show the scripted fault schedule
  fault crash <node> [at=ms] [for=ms]
  fault blackout <node> <node> [at=ms] [for=ms]
  fault degrade <node> <node> [at=ms] [for=ms] [db=N]
  fault corrupt <node> [at=ms] [for=ms] [prob=percent]
  fault jam [channel] [at=ms] [for=ms]
  fault partition <node>... [at=ms] [for=ms]
`)
}

func (s *Shell) ls(args []string) error {
	if s.curName == "" {
		for _, n := range s.byName {
			s.printf("%s\n", n.Path())
		}
		return nil
	}
	// Logged into a node: LiteOS presents the node as a directory tree
	// (/apps, /proc, /dev), fetched over the management channel.
	node, _ := s.CurrentNode()
	sub := ""
	if len(args) > 0 {
		sub = args[0]
	}
	entries, err := s.ws.FsList(node, sub)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Dir {
			s.printf("%s/\n", e.Name)
			continue
		}
		s.printf("%-24s %6d B\n", e.Name, e.Size)
	}
	return nil
}

func (s *Shell) cd(args []string) error {
	if len(args) != 1 {
		return errors.New("shell: usage: cd <node-path|name|/>")
	}
	target := args[0]
	if target == "/" || target == ".." {
		s.cwd = "/"
		s.curName = ""
		return nil
	}
	// Accept either the full path (/sn01/192.168.0.1) or the bare name.
	name := target
	if strings.HasPrefix(target, "/") {
		parts := strings.Split(strings.Trim(target, "/"), "/")
		name = parts[len(parts)-1]
	}
	n, ok := s.tb.ByName(name)
	if !ok {
		return fmt.Errorf("shell: no such node %q", target)
	}
	s.cwd = n.Path()
	s.curName = name
	return nil
}

// node returns the node this session is logged into.
func (s *Shell) node() (phys.NodeID, error) {
	if s.curName == "" {
		return 0, errors.New("shell: not logged into a node (cd into one first)")
	}
	return s.mustID(s.curName), nil
}

// resolveTarget accepts a node name or a numeric ID.
func (s *Shell) resolveTarget(arg string) (phys.NodeID, error) {
	if n, ok := s.tb.ByName(arg); ok {
		return n.ID(), nil
	}
	if v, err := strconv.Atoi(arg); err == nil && v > 0 && v < 0xFFFF {
		return phys.NodeID(v), nil
	}
	return 0, fmt.Errorf("shell: unknown node %q", arg)
}

// parseOpts parses the paper's key=value option style.
func parseOpts(args []string) (map[string]int, []string, error) {
	opts := make(map[string]int)
	var rest []string
	for _, a := range args {
		if k, v, ok := strings.Cut(a, "="); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, nil, fmt.Errorf("shell: bad option %q", a)
			}
			opts[k] = n
			continue
		}
		rest = append(rest, a)
	}
	return opts, rest, nil
}

func msStr(us uint32) string {
	return fmt.Sprintf("%.1f", float64(us)/1000)
}

// pathArgs is what ping and traceroute read from their arguments: the
// node logged into, one target, and the round (default 1), length
// (default 32) and port options.
type pathArgs struct {
	node, dst      phys.NodeID
	target         string // as typed
	rounds, length int
	port           byte
}

func (s *Shell) parsePathArgs(cmd string, args []string) (a pathArgs, err error) {
	if a.node, err = s.node(); err != nil {
		return a, err
	}
	opts, rest, err := parseOpts(args)
	if err != nil {
		return a, err
	}
	if len(rest) != 1 {
		return a, fmt.Errorf("shell: usage: %s <name|id> [round=N] [length=B] [port=P]", cmd)
	}
	if a.dst, err = s.resolveTarget(rest[0]); err != nil {
		return a, err
	}
	a.target, a.rounds, a.length, a.port = rest[0], opts["round"], opts["length"], byte(opts["port"])
	if a.rounds == 0 {
		a.rounds = 1
	}
	if a.length == 0 {
		a.length = 32
	}
	return a, nil
}

func (s *Shell) ping(args []string) error {
	a, err := s.parsePathArgs("ping", args)
	if err != nil {
		return err
	}
	out, err := s.ws.Ping(a.node, core.PingOptions{Dst: a.dst, Rounds: a.rounds, Length: a.length, RouterPort: a.port})
	if err != nil {
		return err
	}
	s.printf("Pinging %s with %d packets with %d bytes:\n", a.target, a.rounds, a.length)
	if a.port != 0 && out.Protocol != "" {
		s.printf("Name of protocol: %s\n", out.Protocol)
	}
	for _, r := range out.Results {
		if r.Lost {
			s.printf("Request timed out (packet %d)\n", r.Seq+1)
			continue
		}
		s.printf("RTT = %s ms, LQI = %d/%d, RSSI = %d/%d, Queue = %d/%d\n",
			msStr(r.RTT), r.LQIFwd, r.LQIBwd, r.RSSIFwd, r.RSSIBwd, r.QFwd, r.QBwd)
		s.printf("Power = %d, Channel = %d\n", r.Power, r.Channel)
		for _, h := range r.HopQuality {
			dir := "forward"
			if h.Back {
				dir = "backward"
			}
			s.printf("  hop (%s): LQI = %d, RSSI = %d\n", dir, h.LQI, h.RSSI)
		}
	}
	s.printf("\nPing statistics:\nPackets = %d\nReceived = %d\nLost = %d\n",
		out.Sent, out.Received, out.Lost)
	return nil
}

func (s *Shell) traceroute(args []string) error {
	a, err := s.parsePathArgs("traceroute", args)
	if err != nil {
		return err
	}
	if a.port == 0 {
		a.port = 10 // the paper's geographic forwarding example
	}
	s.printf("Reaching %s with %d packets with %d bytes:\n", a.target, a.rounds, a.length)
	for round := 0; round < a.rounds; round++ {
		out, err := s.ws.Traceroute(a.node, core.TrOptions{Dst: a.dst, Length: a.length, RouterPort: a.port})
		if err != nil {
			return err
		}
		if round == 0 && out.Protocol != "" {
			s.printf("Name of protocol: %s\n", out.Protocol)
		}
		s.printHops(out.Reports)
		s.printf("\nTraceroute statistics:\nPackets = %d\nReceived = %d\nLost = %d\n",
			out.Sent, out.Received, out.Lost)
		s.printf("Verdict: %s\n", out.Verdict)
	}
	return nil
}

// printHops prints a traceroute's reports in hop order with explicit
// "*" lines for hops whose report was lost on its way back: the walk
// continued past them (a later hop reported), so the user sees partial
// knowledge with marked gaps instead of a silently shortened path.
func (s *Shell) printHops(reports []core.TimedHopReport) {
	reports = append([]core.TimedHopReport(nil), reports...)
	sort.Slice(reports, func(i, j int) bool { return reports[i].Hop < reports[j].Hop })
	next := 1
	for _, rep := range reports {
		for ; next < rep.Hop; next++ {
			s.printf("Hop %d: *\n", next)
		}
		next = rep.Hop + 1
		if rep.Lost {
			s.printf("Hop %d: no reply\n", rep.Hop)
			continue
		}
		s.printf("Reply from %s\n", s.tb.NameOf(rep.From))
		s.printf("RTT = %s ms, LQI = %d/%d, RSSI = %d/%d, Queue = %d/%d\n",
			msStr(rep.RTT), rep.LQIFwd, rep.LQIBwd, rep.RSSIFwd, rep.RSSIBwd, rep.QFwd, rep.QBwd)
	}
}

func (s *Shell) neighborSetup(args []string) error {
	node, err := s.node()
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return errors.New("shell: usage: neighborsetup list|blacklist|update ...")
	}
	switch args[0] {
	case "list":
		out, err := s.ws.NeighborList(node)
		if err != nil {
			return err
		}
		s.printf("Neighbors of %s (%d entries):\n", s.curName, len(out.Entries))
		for _, e := range out.Entries {
			flag := ""
			if e.Blacklisted {
				flag = " [blacklisted]"
			}
			s.printf("  %-14s id=%d LQI=%d RSSI=%d PRR=%d%%%s\n",
				s.tb.NameOf(e.ID), e.ID, e.LQI, e.RSSI, e.PRRPercent, flag)
		}
		return nil
	case "blacklist":
		if len(args) != 3 || (args[1] != "add" && args[1] != "remove") {
			return errors.New("shell: usage: neighborsetup blacklist add|remove <name|id>")
		}
		target, err := s.resolveTarget(args[2])
		if err != nil {
			return err
		}
		if err := s.ws.Blacklist(node, target, args[1] == "add"); err != nil {
			return err
		}
		s.printf("OK\n")
		return nil
	case "update":
		opts, _, err := parseOpts(args[1:])
		if err != nil {
			return err
		}
		periodMs, ok := opts["period"]
		if !ok || periodMs <= 0 {
			return errors.New("shell: usage: neighborsetup update period=<ms>")
		}
		if err := s.ws.UpdateBeaconPeriod(node, sim.Time(periodMs)*time.Millisecond); err != nil {
			return err
		}
		s.printf("OK\n")
		return nil
	default:
		return fmt.Errorf("shell: unknown neighborsetup subcommand %q", args[0])
	}
}

func (s *Shell) logCmd(args []string) error {
	node, err := s.node()
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return errors.New("shell: usage: log on|off|show [count]")
	}
	switch args[0] {
	case "on", "off":
		if err := s.ws.LogControl(node, args[0] == "on"); err != nil {
			return err
		}
		s.printf("OK\n")
		return nil
	case "show":
		count := 0
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 {
				return fmt.Errorf("shell: bad count %q", args[1])
			}
			count = v
		}
		entries, err := s.ws.LogDump(node, count)
		if err != nil {
			return err
		}
		s.printf("event log of %s (%d entries):\n", s.curName, len(entries))
		for _, e := range entries {
			s.printf("  [%d ms] %s: %s\n", e.AtMs, e.Tag, e.Msg)
		}
		return nil
	default:
		return fmt.Errorf("shell: unknown log subcommand %q", args[0])
	}
}

// healthcheck walks the whole deployment with the workstation and
// prints the diagnose report.
func (s *Shell) healthcheck() error {
	targets := make([]diagnose.Target, 0, len(s.byName))
	for _, n := range s.byName {
		targets = append(targets, diagnose.Target{ID: n.ID(), Name: n.Name(), Pos: n.Position()})
	}
	// One span covers the whole walk: every ping, traceroute, and
	// neighbor query the diagnosis runs is stamped with it, so a trace
	// can separate healthcheck traffic from user commands.
	rec := s.ws.Telemetry()
	span := rec.BeginSpan(core.WorkstationID, "healthcheck",
		telemetry.Int("targets", len(targets)))
	rep, err := diagnose.HealthCheck(s.ws, targets)
	rec.EndSpan(span, telemetry.Bool("ok", err == nil))
	if err != nil {
		return err
	}
	s.printf("%s", rep)
	// The walk leaves the operator at the last node; return to the
	// current session node if one is selected.
	if n, ok := s.tb.ByName(s.curName); ok {
		s.ws.MoveTo(n.Position())
	}
	return nil
}

// health renders the self-healing layer's state: links the delivery
// estimators have marked suspect (consecutive failed unicasts) and the
// workstation's per-node command circuit breakers. Suspect links come
// from the simulator-side kernel tables, so the command works even when
// parts of the network are unreachable — that is exactly when the user
// needs it.
func (s *Shell) health() error {
	s.printf("suspect links:\n")
	count := 0
	for _, n := range s.tb.Nodes {
		for _, e := range n.SysNeighborTable().Suspects() {
			s.printf("  %s -> %s: delivery=%.0f%% etx=%.1f\n",
				n.Name(), s.tb.NameOf(e.ID), e.Delivery*100, e.ETX())
			count++
		}
	}
	if count == 0 {
		s.printf("  none\n")
	}
	s.printf("command circuit breakers:\n")
	brs := s.ws.Breakers()
	if len(brs) == 0 {
		s.printf("  all closed\n")
		return nil
	}
	for _, b := range brs {
		s.printf("  %s: %s, %d consecutive failure(s)", s.tb.NameOf(b.Node), b.State, b.Fails)
		if b.RetryIn > 0 {
			s.printf(", probe in %v", time.Duration(b.RetryIn))
		}
		s.printf("\n")
	}
	return nil
}

// stats prints the node's counters and routing protocol state, plus the
// simulator-side medium counters on testbed sessions. "stats medium"
// prints only the medium block (no login needed); "stats reset" zeroes
// the medium and every node's MAC counters.
func (s *Shell) stats(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "medium":
			return s.statsMedium()
		case "reset":
			return s.statsReset()
		default:
			return fmt.Errorf("shell: usage: stats [medium|reset]")
		}
	}
	node, err := s.node()
	if err != nil {
		return err
	}
	out, err := s.ws.Stats(node)
	if err != nil {
		return err
	}
	n := out.Node
	s.printf("node %s, up %d ms:\n", s.curName, n.UptimeMs)
	s.printf("  mac: sent=%d received=%d retries=%d noack=%d crcfail=%d queuedrop=%d queue=%d\n",
		n.MACSent, n.MACReceived, n.MACRetries, n.MACNoAck, n.MACCRCFail, n.MACQueueDrop, n.QueueLen)
	s.printf("  stack: delivered=%d nosubscriber=%d\n", n.StackDeliver, n.StackNoSub)
	s.printf("  ram: %d used / %d free\n", n.RAMUsed, n.RAMFree)
	for _, rt := range out.Routers {
		s.printf("  protocol %q (port %d): originated=%d forwarded=%d delivered=%d noroute=%d queuedrop=%d",
			rt.Name, rt.Port, rt.Originated, rt.Forwarded, rt.Delivered, rt.NoRoute, rt.QueueDrops)
		if rt.HasParent {
			s.printf(" parent=%s cost=%.2f", s.tb.NameOf(rt.Parent), float64(rt.CostCentile)/100)
		}
		s.printf("\n")
	}
	s.printMediumStats()
	return nil
}

// printMediumStats renders the shared-air counters.
func (s *Shell) printMediumStats() {
	ms := s.tb.Med.Stats()
	s.printf("  medium: transmitted=%d delivered=%d corrupted=%d missed=%d belowsens=%d wrongch=%d injected=%d\n",
		ms.Transmitted, ms.Delivered, ms.Corrupted, ms.MissedNotListening,
		ms.BelowSensitivity, ms.WrongChannel, ms.InjectedDrops)
}

// statsMedium prints the medium counters without needing a node login.
func (s *Shell) statsMedium() error {
	s.printf("medium counters:\n")
	s.printMediumStats()
	return nil
}

// statsReset zeroes the medium counters and, on every node, the MAC
// counters, the attached routing protocols' counters, and the neighbor
// table's link-estimator counters — one command returns the whole
// observability surface to a clean baseline before an experiment.
func (s *Shell) statsReset() error {
	s.tb.Med.ResetStats()
	for _, n := range s.tb.Nodes {
		n.MAC().ResetStats()
		n.SysNeighborTable().ResetEstimatorStats()
		for _, r := range s.tb.Routers(n.ID()) {
			r.ResetStats()
		}
	}
	s.printf("medium, MAC, routing, and link-estimator counters reset\n")
	return nil
}

// trace controls the deployment-wide telemetry recorder: `trace on`
// starts capturing cross-layer events, `trace off` stops, `trace dump
// [count]` prints the newest events as JSONL from the recorder's
// history of the last telemetry.RingDepth, `trace summary` prints
// per-layer counts of everything recorded, and `trace spans` lists the
// newest telemetry.SpanRows command spans.
func (s *Shell) trace(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("shell: usage: trace on|off|dump [count, at most %d]|summary|spans", telemetry.RingDepth)
	}
	rec := s.tb.Telemetry()
	switch args[0] {
	case "on":
		rec.Start()
		s.printf("telemetry recording on\n")
		return nil
	case "off":
		rec.Stop()
		s.printf("telemetry recording off (%d events captured)\n", rec.Len())
		return nil
	case "dump":
		count := 20
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 {
				return fmt.Errorf("shell: bad count %q", args[1])
			}
			count = v
		}
		sink, finish := telemetry.NewJSONL(s.out)
		rec.History(count, sink)
		return finish()
	case "summary":
		s.printf("%s", rec.Summary())
		return nil
	case "spans":
		s.printf("%s", rec.SpanSummary())
		return nil
	default:
		return fmt.Errorf("shell: unknown trace subcommand %q", args[0])
	}
}

// energy prints the node's battery account.
func (s *Shell) energy() error {
	node, err := s.node()
	if err != nil {
		return err
	}
	es, err := s.ws.Energy(node)
	if err != nil {
		return err
	}
	s.printf("battery of %s: %.1f%% remaining\n", s.curName, float64(es.RemainingPermille)/10)
	s.printf("  tx  %9.3f mJ over %d ms\n", float64(es.TXuJ)/1000, es.TXms)
	s.printf("  rx  %9.3f mJ over %d ms (idle listening)\n", float64(es.RXuJ)/1000, es.RXms)
	s.printf("  off %9.3f mJ over %d ms\n", float64(es.OffuJ)/1000, es.Offms)
	if es.HasLifetime {
		s.printf("  projected lifetime at this draw: %d hours\n", es.EstimatedLifetimeHours)
	}
	return nil
}

// survey broadcasts a radio query: every node in range reports its
// power level and channel after a random group backoff.
func (s *Shell) survey() error {
	got, err := s.ws.GroupRadioGet()
	if err != nil {
		return err
	}
	s.printf("radio survey: %d node(s) answered\n", len(got))
	ids := make([]int, 0, len(got))
	for id := range got {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		ri := got[phys.NodeID(id)]
		s.printf("  %-14s power=%d channel=%d\n", s.tb.NameOf(phys.NodeID(id)), ri.Power, ri.Channel)
	}
	return nil
}

func (s *Shell) power(args []string) error {
	node, err := s.node()
	if err != nil {
		return err
	}
	switch len(args) {
	case 0:
		ri, err := s.ws.RadioGet(node)
		if err != nil {
			return err
		}
		s.printf("Power = %d\n", ri.Power)
		return nil
	case 1:
		level, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("shell: bad power level %q", args[0])
		}
		if err := s.ws.SetPower(node, level); err != nil {
			return err
		}
		s.printf("OK\n")
		return nil
	default:
		return errors.New("shell: usage: power [level]")
	}
}

// fault scripts deterministic failures on the deployment — the chaos
// counterpart of the management commands. Times are relative
// milliseconds: at=0 (the default) schedules the fault for the next
// simulation step, for=0 makes it permanent.
func (s *Shell) fault(args []string) error {
	if len(args) == 0 {
		return errors.New("shell: usage: fault list|crash|blackout|degrade|corrupt|jam|partition ...")
	}
	sub := args[0]
	if sub == "list" {
		faults := s.inj.Faults()
		s.printf("fault schedule (%d entries):\n", len(faults))
		for _, st := range faults {
			s.printf("  %s\n", st)
		}
		return nil
	}
	opts, rest, err := parseOpts(args[1:])
	if err != nil {
		return err
	}
	f := fault.Fault{
		At:       s.inj.Now() + sim.Time(opts["at"])*time.Millisecond,
		Duration: sim.Time(opts["for"]) * time.Millisecond,
	}
	resolveAll := func() ([]phys.NodeID, error) {
		targets := make([]phys.NodeID, 0, len(rest))
		for _, a := range rest {
			id, err := s.resolveTarget(a)
			if err != nil {
				return nil, err
			}
			targets = append(targets, id)
		}
		return targets, nil
	}
	switch sub {
	case "crash", "corrupt":
		targets, err := resolveAll()
		if err != nil {
			return err
		}
		if len(targets) != 1 {
			return fmt.Errorf("shell: usage: fault %s <node> [at=ms] [for=ms]", sub)
		}
		f.Node = targets[0]
		if sub == "crash" {
			f.Kind = fault.NodeCrash
		} else {
			f.Kind = fault.CorruptBurst
			f.Prob = float64(opts["prob"]) / 100
		}
	case "blackout", "degrade":
		targets, err := resolveAll()
		if err != nil {
			return err
		}
		if len(targets) != 2 {
			return fmt.Errorf("shell: usage: fault %s <node> <node> [at=ms] [for=ms]", sub)
		}
		f.A, f.B = targets[0], targets[1]
		if sub == "blackout" {
			f.Kind = fault.LinkBlackout
		} else {
			f.Kind = fault.LinkDegrade
			f.ExtraLossDB = float64(opts["db"])
		}
	case "jam":
		f.Kind = fault.Jam
		switch len(rest) {
		case 0:
		case 1:
			ch, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("shell: bad channel %q", rest[0])
			}
			f.Channel = ch
		default:
			return errors.New("shell: usage: fault jam [channel] [at=ms] [for=ms]")
		}
	case "partition":
		targets, err := resolveAll()
		if err != nil {
			return err
		}
		if len(targets) == 0 {
			return errors.New("shell: usage: fault partition <node>... [at=ms] [for=ms]")
		}
		f.Kind = fault.Partition
		f.Group = targets
	default:
		return fmt.Errorf("shell: unknown fault subcommand %q", sub)
	}
	rec := s.ws.Telemetry()
	span := rec.BeginSpan(core.WorkstationID, "fault", telemetry.String("fault", f.Kind.String()))
	id, err := s.inj.Schedule(f)
	rec.EndSpan(span, telemetry.Bool("ok", err == nil))
	if err != nil {
		return err
	}
	s.printf("fault #%d scheduled: %s at %v\n", id, f.Kind, f.At)
	return nil
}

func (s *Shell) channel(args []string) error {
	node, err := s.node()
	if err != nil {
		return err
	}
	switch len(args) {
	case 0:
		ri, err := s.ws.RadioGet(node)
		if err != nil {
			return err
		}
		s.printf("Channel = %d\n", ri.Channel)
		return nil
	case 1:
		ch, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("shell: bad channel %q", args[0])
		}
		if err := s.ws.SetChannel(node, ch); err != nil {
			return err
		}
		// Follow the node onto its new channel so the session survives.
		if err := s.ws.Radio().SetChannel(ch); err != nil {
			return err
		}
		s.printf("OK (session retuned to channel %d)\n", ch)
		return nil
	default:
		return errors.New("shell: usage: channel [ch]")
	}
}
