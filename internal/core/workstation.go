package core

import (
	"errors"
	"fmt"
	"time"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/telemetry"
)

// WorkstationID is the reserved short address of the management
// workstation's base-station radio.
const WorkstationID phys.NodeID = 0xFF00

// ResponseWindow is the default command response delay: "By default,
// all commands have a response delay of 500 milliseconds", a period
// intentionally longer than the network needs so that groups of nodes
// can add random waiting time before answering.
const ResponseWindow = 500 * time.Millisecond

// Workstation is the LiteView command interpreter: it translates each
// user command into a sequence of radio messages, tracks management
// session context, and exchanges packets with runtime controllers over
// the reliable one-hop protocol.
//
// The synchronous command methods pump the simulation engine until the
// response window closes; call them from outside event callbacks only
// (i.e. from test/benchmark/example top level, the position a real user
// occupies).
type Workstation struct {
	eng *sim.Engine
	med *medium.Medium
	rad *radio.Radio
	mac *mac.MAC
	st  *stack.Stack
	ep  *Endpoint

	collecting map[phys.NodeID]*collector
	// groupMode auto-creates collectors for any responder (broadcast
	// commands collect from many nodes at once).
	groupMode bool

	// Per-node circuit breakers (see breaker.go). Group/broadcast
	// commands bypass them: one dead node must not gag an inventory.
	breakers map[phys.NodeID]*Breaker

	// tel scopes command spans: every command opens a span so the
	// events it causes down the stack carry its span id.
	tel *telemetry.Recorder
}

// ErrNoRoute reports a command the target node accepted but could not
// act on because its routing layer found no path toward the requested
// destination. Unlike ErrXferFailed/ErrAckTimeout the management link
// itself is fine — the fault is deeper in the network.
var ErrNoRoute = errors.New("core: node reports no route to destination")

// SetTelemetry points the workstation's MAC, stack, and reliable
// endpoint at a telemetry recorder (nil detaches) and enables
// command-scoped spans on the interpreter itself.
func (w *Workstation) SetTelemetry(rec *telemetry.Recorder) {
	w.tel = rec
	w.mac.SetTelemetry(rec)
	w.st.SetTelemetry(rec)
	w.ep.SetTelemetry(rec)
}

// Telemetry returns the recorder the workstation publishes spans to
// (nil when detached).
func (w *Workstation) Telemetry() *telemetry.Recorder { return w.tel }

type collector struct {
	replies []Reply
	times   []sim.Time
	done    bool
	sendErr error
}

// NewWorkstation attaches a management workstation to the medium at the
// given position (the user walks the deployment with it; it must be in
// radio range of the node it manages).
func NewWorkstation(eng *sim.Engine, med *medium.Medium, pos phys.Position) (*Workstation, error) {
	return NewWorkstationMAC(eng, med, pos, mac.DefaultConfig())
}

// NewWorkstationMAC is NewWorkstation with an explicit MAC
// configuration. On a low-power-listening deployment the workstation
// must speak LPL too: reaching a sleeping node means repeating the
// command frame across the node's sleep interval. It never sleeps
// itself, though: the workstation is a laptop with a USB-powered base
// mote, so a node's reply never waits for it to wake.
func NewWorkstationMAC(eng *sim.Engine, med *medium.Medium, pos phys.Position, macCfg mac.Config) (*Workstation, error) {
	macCfg.Listening = true
	rad, err := radio.New(17)
	if err != nil {
		return nil, err
	}
	w := &Workstation{
		eng:        eng,
		med:        med,
		rad:        rad,
		collecting: make(map[phys.NodeID]*collector),
		breakers:   make(map[phys.NodeID]*Breaker),
	}
	var st *stack.Stack
	m, err := mac.New(eng, med, rad, WorkstationID, pos, macCfg,
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	if err != nil {
		return nil, err
	}
	st = stack.New(eng, m)
	w.mac = m
	w.st = st
	w.ep, err = NewEndpoint(eng, st, DefaultReliableConfig(), w.onMessage)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Radio exposes the workstation's own radio (e.g. to follow a node onto
// another channel after a set-channel command).
func (w *Workstation) Radio() *radio.Radio { return w.rad }

// MoveTo relocates the workstation: the management protocol is one-hop,
// so the operator walks to whichever node they want to log into.
func (w *Workstation) MoveTo(pos phys.Position) { w.mac.SetPosition(pos) }

// Position returns the workstation's current location.
func (w *Workstation) Position() phys.Position { return w.mac.Position() }

// Endpoint exposes the interpreter's reliable-protocol endpoint.
func (w *Workstation) Endpoint() *Endpoint { return w.ep }

// onMessage routes controller replies to the active collector.
func (w *Workstation) onMessage(from phys.NodeID, payload []byte, _ medium.RxInfo, _ bool) {
	rep, err := DecodeReply(payload)
	if err != nil {
		return
	}
	c, ok := w.collecting[from]
	if !ok {
		if !w.groupMode {
			return
		}
		c = &collector{}
		w.collecting[from] = c
	}
	c.replies = append(c.replies, rep)
	c.times = append(c.times, w.eng.Now())
	if rep.Kind == KindStatus {
		c.done = true
	}
}

// pump advances the simulation until the deadline passes, or — when
// early is true — until the collector reports done.
func (w *Workstation) pump(deadline sim.Time, c *collector, early bool) {
	if !early || c == nil {
		w.eng.RunUntil(deadline)
		return
	}
	for !c.done {
		t, ok := w.eng.NextEventTime()
		if !ok || t > deadline {
			w.eng.RunUntil(deadline) // only moves the clock to deadline
			return
		}
		w.eng.Step()
	}
}

// command runs one unicast command against a node's controller and
// waits the response window ("intentionally longer than needed").
func (w *Workstation) command(node phys.NodeID, cmd Command, window sim.Time, early bool) (*collector, sim.Time, error) {
	data, err := Encode(&cmd)
	if err != nil {
		return nil, 0, fmt.Errorf("core: command %v not sent: %w", cmd.Kind, err)
	}
	if _, busy := w.collecting[node]; busy {
		return nil, 0, fmt.Errorf("core: a command for node %d is already in flight", node)
	}
	if err := w.breakerAllow(node); err != nil {
		return nil, 0, err
	}
	c := &collector{}
	w.collecting[node] = c
	defer delete(w.collecting, node)
	// Scope the command: everything the transfer and the response
	// window cause down the stack is stamped with this span id. When a
	// higher-level command (ping, traceroute, health) already opened a
	// span, this nested one folds into it (BeginSpan returns 0).
	span := w.tel.BeginSpan(WorkstationID, cmd.Kind.String(), telemetry.Node("node", node))
	start := w.eng.Now()
	err = w.ep.Send(node, [][]byte{data}, 0, func(err error) {
		if err != nil {
			c.sendErr = err
			c.done = true
		}
	})
	if err != nil {
		w.tel.EndSpan(span, telemetry.Bool("ok", false))
		return nil, 0, err
	}
	w.pump(start+window, c, early)
	elapsed := w.eng.Now() - start
	// The breaker judges the management link only: did the reliable
	// transfer reach the node? Status errors from a live controller are
	// the network's problem, not this link's.
	w.breakerRecord(node, c.sendErr == nil)
	w.tel.EndSpan(span, telemetry.Bool("ok", c.sendErr == nil))
	if c.sendErr != nil {
		return c, elapsed, fmt.Errorf("core: command %v to node %d: %w", cmd.Kind, node, c.sendErr)
	}
	return c, elapsed, nil
}

// firstStatusErr surfaces an error status reply, if any. Known status
// codes map to typed errors so callers can distinguish failure modes
// with errors.Is.
func firstStatusErr(c *collector) error {
	for _, r := range c.replies {
		if r.Kind == KindStatus && r.Status.Code != StatusOK {
			if r.Status.Code == StatusNoRoute {
				return fmt.Errorf("%w: %s", ErrNoRoute, r.Status.Msg)
			}
			return fmt.Errorf("core: node replied status %d: %s", r.Status.Code, r.Status.Msg)
		}
	}
	return nil
}

// reading is what one node's replies to a single-purpose command say.
// read fills it with one kind switch, so a message reads the same
// whichever command it answers.
type reading struct {
	HealthOutput
	Routers []RouterStats
	Fs      []FsEntry
	Log     []LogEntry
	// radio and node record that the radio settings and the node
	// counters arrived.
	radio, node bool
	// status is the first error status among the replies, and elapsed is
	// how long the command took.
	status  error
	elapsed sim.Time
}

func read(replies []Reply) *reading {
	r := &reading{}
	for _, rep := range replies {
		switch rep.Kind {
		case KindRadioInfo:
			r.Radio, r.radio = rep.Radio, true
		case KindHealthRadio:
			r.Radio, r.Energy, r.radio = rep.Health.Radio, rep.Health.Energy, true
		case KindNodeStats:
			r.Stats, r.node = rep.Node, true
		case KindRouterStats:
			r.Routers = append(r.Routers, rep.Router)
		case KindNbrRows:
			r.Neighbors = append(r.Neighbors, rep.NbrRows.Rows...)
		case KindFsEntry:
			r.Fs = append(r.Fs, rep.Fs)
		case KindLogEntry:
			r.Log = append(r.Log, rep.Log)
		}
	}
	return r
}

// ask runs a command that the node answers within the paper's response
// window, and reads the replies; no reply at all is an error.
func (w *Workstation) ask(node phys.NodeID, cmd Command) (*reading, error) {
	c, elapsed, err := w.command(node, cmd, ResponseWindow, false)
	if err != nil {
		return nil, err
	}
	if len(c.replies) == 0 {
		return nil, errors.New("core: no reply within the response window")
	}
	r := read(c.replies)
	r.status, r.elapsed = firstStatusErr(c), elapsed
	return r, nil
}

// statusCommand runs a command whose only reply is a status.
func (w *Workstation) statusCommand(node phys.NodeID, cmd Command) error {
	r, err := w.ask(node, cmd)
	if err != nil {
		return err
	}
	return r.status
}

// RadioGet reads a node's current power level and channel.
func (w *Workstation) RadioGet(node phys.NodeID) (RadioInfo, error) {
	r, err := w.ask(node, Command{Kind: KindRadioGet})
	if err != nil {
		return RadioInfo{}, err
	}
	if !r.radio {
		return RadioInfo{}, errors.New("core: no radio info reply within the response window")
	}
	return r.Radio, nil
}

// SetPower programs a node's CC2420 PA_LEVEL.
func (w *Workstation) SetPower(node phys.NodeID, level int) error {
	return w.statusCommand(node, Command{Kind: KindSetPower, Value: level})
}

// SetChannel tunes a node to another 802.15.4 channel. The management
// link breaks until the workstation follows.
func (w *Workstation) SetChannel(node phys.NodeID, ch int) error {
	return w.statusCommand(node, Command{Kind: KindSetChannel, Value: ch})
}

// NeighborListOutput is a neighbor listing with its response delay.
type NeighborListOutput struct {
	Entries       []NbrEntry
	ResponseDelay sim.Time
}

// NeighborList reads a node's kernel neighbor table.
func (w *Workstation) NeighborList(node phys.NodeID) (*NeighborListOutput, error) {
	r, err := w.ask(node, Command{Kind: KindNbrList})
	if err != nil {
		return nil, err
	}
	return &NeighborListOutput{Entries: r.Neighbors, ResponseDelay: r.elapsed}, r.status
}

// Blacklist adds (on=true) or removes (on=false) a neighbor on a node's
// blacklist.
func (w *Workstation) Blacklist(node, target phys.NodeID, on bool) error {
	return w.statusCommand(node, Command{Kind: KindNbrBlacklist, Target: target, On: on})
}

// UpdateBeaconPeriod reconfigures a node's neighborhood beacon exchange
// frequency (the neighbor-setup "update" command).
func (w *Workstation) UpdateBeaconPeriod(node phys.NodeID, period sim.Time) error {
	return w.statusCommand(node, Command{Kind: KindNbrUpdate, PeriodMs: uint32(period / time.Millisecond)})
}

// Verdict is the one reading of a ping or traceroute: decided here, read
// by the shell, the command span, DiagnosePath and the bench checks.
type Verdict struct {
	Kind VerdictKind
	// Node is the node the verdict names: the destination, the probed
	// node that did not answer, the relay left without a next hop (0 if
	// unknown), the last node heard from, or the commanded node.
	Node phys.NodeID
	// Hop is the hops walked, the hop where the path broke, or the last
	// hop heard from; 0 for ping and when no hop report came back.
	Hop        int
	Lost, Sent int // a ping's rounds
}

// VerdictKind classifies a verdict. Each kind renders one fixed text.
type VerdictKind uint8

const (
	VerdictNone         VerdictKind = iota // no verdict: the command's options were rejected
	VerdictOK                              // every ping round was answered
	VerdictPartial                         // some ping rounds were lost
	VerdictUnreachable                     // every ping round was lost
	VerdictReached                         // the traceroute's destination answered its probe
	VerdictNoAnswer                        // a probed node did not answer
	VerdictRouteLost                       // a relay had no next hop toward the destination
	VerdictIncomplete                      // the response window cut the walk short
	VerdictNoReports                       // the node answered, but no hop report came back
	VerdictNoResponse                      // nothing came back within the response window
	VerdictNotDelivered                    // the command's reliable transfer failed
	VerdictRefused                         // nothing sent: breaker open, or a command in flight
)

// String renders the verdict as the shell and the command span show it.
// lvperf classifies a traceroute by "destination N reached".
func (v Verdict) String() string {
	switch v.Kind {
	case VerdictOK:
		return "ok"
	case VerdictPartial:
		return fmt.Sprintf("partial: %d/%d round(s) lost", v.Lost, v.Sent)
	case VerdictUnreachable:
		return fmt.Sprintf("destination %d unreachable: all %d round(s) lost", v.Node, v.Lost)
	case VerdictReached:
		return fmt.Sprintf("destination %d reached in %d hop(s)", v.Node, v.Hop)
	case VerdictNoAnswer:
		return fmt.Sprintf("path broke at hop %d: node %d did not answer its probe (crashed, jammed, or link down)", v.Hop, v.Node)
	case VerdictRouteLost:
		return fmt.Sprintf("path broke at hop %d: no next hop toward the destination (route lost)", v.Hop)
	case VerdictIncomplete:
		return fmt.Sprintf("incomplete: last report from hop %d, session cut by the response window", v.Hop)
	case VerdictNoReports:
		return "no hop reports: no route toward the destination, or all reports lost"
	case VerdictNoResponse:
		return "no response: controller unreachable within the response window"
	case VerdictNotDelivered:
		return fmt.Sprintf("command delivery to node %d failed (node down, out of range, or channel jammed)", v.Node)
	case VerdictRefused:
		return fmt.Sprintf("command to node %d not sent (circuit breaker open, or another command in flight)", v.Node)
	}
	return ""
}

// PathOutcome is what a ping and a traceroute both report.
type PathOutcome struct {
	// Sent/Received/Lost mirror the paper's statistics block (rounds or hops).
	Sent, Received, Lost int
	// ResponseDelay is how long the command took at the interpreter.
	ResponseDelay sim.Time
	// Protocol is the carrying protocol's display name.
	Protocol string
	// Verdict is set even when the command also returns an error, so
	// callers can surface what was learned before the failure.
	Verdict Verdict
}

// PingOutput is the interpreter-side result of a ping command.
type PingOutput struct {
	PathOutcome
	// Results holds one entry per round.
	Results []PingResult
}

// Ping runs the ping command on node (the node the user is logged
// into), probing opts.Dst.
func (w *Workstation) Ping(node phys.NodeID, opts PingOptions) (*PingOutput, error) {
	if err := (&opts).normalize(); err != nil {
		return nil, err
	}
	cmd := Command{Kind: KindPing, Dst: opts.Dst, Rounds: opts.Rounds, Length: opts.Length, RouterPort: opts.RouterPort}
	// The window must cover all rounds; each timed-out round costs the
	// per-round timeout. The default single round keeps the paper's
	// 500 ms response delay.
	window := ResponseWindow + sim.Time(opts.Rounds-1)*opts.Timeout
	if opts.RouterPort != 0 {
		window += sim.Time(opts.Rounds) * opts.Timeout
	}
	out := &PingOutput{PathOutcome: PathOutcome{Sent: opts.Rounds}}
	return out, w.pathCommand(node, cmd, window, false, &out.PathOutcome, func(c *collector) Verdict {
		bySeq := make(map[int]*PingResult)
		for _, r := range c.replies {
			switch r.Kind {
			case KindPingResult:
				out.Results = append(out.Results, r.Ping)
				bySeq[r.Ping.Seq] = &out.Results[len(out.Results)-1]
				if r.Ping.Lost {
					out.Lost++
				} else {
					out.Received++
				}
			case KindPingHops:
				if res, ok := bySeq[r.PingHops.Seq]; ok {
					res.HopQuality = append(res.HopQuality, r.PingHops.Records...)
				}
			}
		}
		// Rounds whose result reply never made it back count as lost: the
		// statistics block must always account for every round sent, even
		// when the reply stream itself was clipped by losses or the window.
		if missing := out.Sent - (out.Received + out.Lost); missing > 0 {
			out.Lost += missing
		}
		v := Verdict{Kind: VerdictOK, Node: opts.Dst, Lost: out.Lost, Sent: out.Sent}
		switch {
		case out.Received == 0 && out.Lost > 0:
			v.Kind = VerdictUnreachable
		case out.Lost > 0:
			v.Kind = VerdictPartial
		}
		return v
	})
}

// TimedHopReport is a traceroute hop report stamped with its arrival
// time at the interpreter — the quantity Figure 5 plots.
type TimedHopReport struct {
	TrHopReport
	// At is the virtual arrival time at the workstation.
	At sim.Time
	// Delay is At minus the command start.
	Delay sim.Time
}

// TracerouteOutput is the interpreter-side result of a traceroute.
type TracerouteOutput struct {
	PathOutcome
	Reports []TimedHopReport
}

// Traceroute runs the traceroute command on node toward opts.Dst,
// streaming per-hop reports. The command finishes when the
// destination's report arrives (the controller then closes the stream)
// or when the window expires.
func (w *Workstation) Traceroute(node phys.NodeID, opts TrOptions) (*TracerouteOutput, error) {
	if err := (&opts).normalize(); err != nil {
		return nil, err
	}
	cmd := Command{Kind: KindTraceroute, Dst: opts.Dst, Rounds: 1, Length: opts.Length,
		RouterPort: opts.RouterPort, Retries: opts.ProbeRetries}
	// The listen window mirrors the controller's session budget (which
	// accounts for per-hop retries) plus the usual command window.
	window := ResponseWindow + opts.SessionBudget()
	start := w.eng.Now()
	out := &TracerouteOutput{}
	return out, w.pathCommand(node, cmd, window, true, &out.PathOutcome, func(c *collector) Verdict {
		for i, r := range c.replies {
			if r.Kind == KindTrHopReport {
				out.Reports = append(out.Reports, TimedHopReport{TrHopReport: r.TrHop, At: c.times[i], Delay: c.times[i] - start})
				if r.TrHop.Lost {
					out.Lost++
				}
			}
		}
		out.Sent, out.Received = len(out.Reports), len(out.Reports)-out.Lost
		return trVerdict(node, opts.Dst, out.Reports)
	})
}

// trVerdict reads a traceroute's hop reports into its verdict. node is
// the commanded node, where the walk starts.
func trVerdict(node, dst phys.NodeID, reports []TimedHopReport) Verdict {
	if len(reports) == 0 {
		return Verdict{Kind: VerdictNoReports, Node: node}
	}
	last := reports[len(reports)-1]
	v := Verdict{Kind: VerdictIncomplete, Node: last.From, Hop: last.Hop}
	switch {
	case last.Final && !last.Lost:
		v.Kind, v.Node = VerdictReached, dst
	case last.Lost && last.From != 0:
		v.Kind = VerdictNoAnswer
	case last.Lost:
		// The node one hop back sent this report: it had no next hop.
		v.Kind, v.Node = VerdictRouteLost, 0
		if last.Hop == 1 {
			v.Node = node
		}
		for _, r := range reports {
			if r.Hop == last.Hop-1 {
				v.Node = r.From
			}
		}
	}
	return v
}

// pathCommand runs a ping or traceroute under one span, which every
// probe, retry and report it causes carries, and fills out's delay,
// protocol and verdict. A command that was not sent, not delivered or not
// answered is judged here; decide reads the replies of one that was.
func (w *Workstation) pathCommand(node phys.NodeID, cmd Command, window sim.Time, early bool,
	out *PathOutcome, decide func(*collector) Verdict) error {
	span := w.tel.BeginSpan(WorkstationID, cmd.Kind.String(),
		telemetry.Node("node", node), telemetry.Node("dst", cmd.Dst))
	defer func() { w.tel.EndSpan(span, telemetry.String("verdict", out.Verdict.String())) }()
	c, elapsed, err := w.command(node, cmd, window, early)
	out.ResponseDelay = elapsed
	switch {
	case c == nil:
		out.Verdict = Verdict{Kind: VerdictRefused, Node: node}
	case err != nil:
		out.Verdict = Verdict{Kind: VerdictNotDelivered, Node: node}
	case len(c.replies) == 0:
		out.Verdict = Verdict{Kind: VerdictNoResponse, Node: node}
		err = fmt.Errorf("core: no %v reply within the response window", cmd.Kind)
	default:
		for _, r := range c.replies {
			if r.Kind == KindStatus && r.Status.Code == StatusOK {
				out.Protocol = r.Status.Msg
			}
		}
		out.Verdict, err = decide(c), firstStatusErr(c)
	}
	return err
}

// StatsOutput is the interpreter-side result of a stats query.
type StatsOutput struct {
	Node    NodeStats
	Routers []RouterStats
}

// Stats reads a node's link/stack counters and routing protocol state.
func (w *Workstation) Stats(node phys.NodeID) (*StatsOutput, error) {
	r, err := w.ask(node, Command{Kind: KindStatsGet})
	if err != nil {
		return nil, err
	}
	if r.status != nil {
		return nil, r.status
	}
	if !r.node {
		return nil, errors.New("core: stats reply lacked the node record")
	}
	return &StatsOutput{Node: r.Stats, Routers: r.Routers}, nil
}

// HealthOutput is one node's answer to the health query: what the
// stats, energy, radio-get and neighbor-list commands report, from one
// transfer.
type HealthOutput struct {
	Radio     RadioInfo
	Stats     NodeStats
	Energy    EnergyStats
	Neighbors []NbrEntry
}

// Health asks a node for its radio settings, counters, battery account
// and neighbor table in one command and one response window. A reply
// cut off mid-transfer keeps what arrived; the error is nil exactly
// when the radio settings arrived, as RadioGet's would be.
func (w *Workstation) Health(node phys.NodeID) (*HealthOutput, error) {
	r, err := w.ask(node, Command{Kind: KindHealthGet})
	if err != nil {
		return nil, err
	}
	if !r.radio {
		return &r.HealthOutput, errors.New("core: no radio settings in the health reply within the response window")
	}
	return &r.HealthOutput, nil
}

// Energy reads a node's battery account.
func (w *Workstation) Energy(node phys.NodeID) (EnergyStats, error) {
	r, err := w.ask(node, Command{Kind: KindEnergyGet})
	if err != nil {
		return EnergyStats{}, err
	}
	if !r.radio {
		return EnergyStats{}, errors.New("core: no energy reply within the response window")
	}
	return r.Energy, r.status
}

// FsList reads a node's LiteOS file-tree directory ("" or "/" for the
// node root).
func (w *Workstation) FsList(node phys.NodeID, path string) ([]FsEntry, error) {
	r, err := w.ask(node, Command{Kind: KindFsList, Path: path})
	if err != nil {
		return nil, err
	}
	return r.Fs, r.status
}

// LogControl enables or disables a node's on-demand event logging.
func (w *Workstation) LogControl(node phys.NodeID, on bool) error {
	return w.statusCommand(node, Command{Kind: KindLogCtl, On: on})
}

// LogDump fetches up to count of the newest entries from a node's event
// log. Count 0 fetches the whole ring, and so does a count above 255:
// the count travels in one byte, and no ring holds that many entries.
func (w *Workstation) LogDump(node phys.NodeID, count int) ([]LogEntry, error) {
	if count > 255 {
		count = 0
	}
	r, err := w.ask(node, Command{Kind: KindLogDump, Count: count})
	if err != nil {
		return nil, err
	}
	return r.Log, r.status
}

// GroupRadioGet broadcasts a radio-configuration query: every
// controller in range answers (after its group backoff) with its power
// level and channel — a one-command inventory of the deployment's radio
// settings. Replies are collected for one response window, with a
// fresh collector table that creates a collector per responder.
func (w *Workstation) GroupRadioGet() (map[phys.NodeID]RadioInfo, error) {
	data, err := Encode(&Command{Kind: KindRadioGet})
	if err != nil {
		return nil, err
	}
	prev := w.collecting
	got := make(map[phys.NodeID]*collector)
	w.collecting = got
	w.groupMode = true
	defer func() {
		w.collecting = prev
		w.groupMode = false
	}()
	if err := w.ep.Send(phys.Broadcast, [][]byte{data}, 0, nil); err != nil {
		return nil, err
	}
	w.pump(w.eng.Now()+ResponseWindow, nil, false)
	out := make(map[phys.NodeID]RadioInfo)
	for id, c := range got {
		if r := read(c.replies); r.radio {
			out[id] = r.Radio
		}
	}
	return out, nil
}
