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

// statusCommand runs a command whose only reply is a status.
func (w *Workstation) statusCommand(node phys.NodeID, cmd Command) error {
	c, _, err := w.command(node, cmd, ResponseWindow, false)
	if err != nil {
		return err
	}
	if len(c.replies) == 0 {
		return errors.New("core: no reply within the response window")
	}
	return firstStatusErr(c)
}

// RadioGet reads a node's current power level and channel.
func (w *Workstation) RadioGet(node phys.NodeID) (RadioInfo, error) {
	c, _, err := w.command(node, Command{Kind: KindRadioGet}, ResponseWindow, false)
	if err != nil {
		return RadioInfo{}, err
	}
	for _, r := range c.replies {
		if r.Kind == KindRadioInfo {
			return r.Radio, nil
		}
	}
	return RadioInfo{}, errors.New("core: no radio info reply within the response window")
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

// NeighborList reads a node's kernel neighbor table, with or without
// link information.
func (w *Workstation) NeighborList(node phys.NodeID, withLink bool) (*NeighborListOutput, error) {
	c, elapsed, err := w.command(node, Command{Kind: KindNbrList, WithLink: withLink}, ResponseWindow, false)
	if err != nil {
		return nil, err
	}
	out := &NeighborListOutput{ResponseDelay: elapsed}
	for _, r := range c.replies {
		if r.Kind == KindNbrEntry {
			out.Entries = append(out.Entries, r.Nbr)
		}
	}
	if len(c.replies) == 0 {
		return nil, errors.New("core: no reply within the response window")
	}
	return out, firstStatusErr(c)
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

// PingOutput is the interpreter-side result of a ping command.
type PingOutput struct {
	// Results holds one entry per round.
	Results []PingResult
	// Sent/Received/Lost mirror the paper's "Ping statistics" block.
	Sent, Received, Lost int
	// ResponseDelay is how long the command took at the interpreter.
	ResponseDelay sim.Time
	// Protocol is the carrying protocol's display name.
	Protocol string
	// Verdict is the interpreter's one-line reading of the outcome:
	// "ok", a partial-loss summary, or an explicit failure statement.
	// It is set even when Ping also returns an error, so callers can
	// surface what was learned before the failure.
	Verdict string
}

// Ping runs the ping command on node (the node the user is logged
// into), probing opts.Dst.
func (w *Workstation) Ping(node phys.NodeID, opts PingOptions) (out *PingOutput, err error) {
	if err := (&opts).normalize(); err != nil {
		return nil, err
	}
	// The ping span covers every round: all MAC transmissions, retries,
	// and routing decisions the probe causes carry this id.
	span := w.tel.BeginSpan(WorkstationID, "ping",
		telemetry.Node("node", node), telemetry.Node("dst", opts.Dst))
	defer func() {
		verdict := ""
		if out != nil {
			verdict = out.Verdict
		}
		w.tel.EndSpan(span, telemetry.String("verdict", verdict))
	}()
	cmd := Command{Kind: KindPing, Dst: opts.Dst, Rounds: opts.Rounds, Length: opts.Length, RouterPort: opts.RouterPort}
	// The window must cover all rounds; each timed-out round costs the
	// per-round timeout. The default single round keeps the paper's
	// 500 ms response delay.
	window := ResponseWindow + sim.Time(opts.Rounds-1)*opts.Timeout
	if opts.RouterPort != 0 {
		window += sim.Time(opts.Rounds) * opts.Timeout
	}
	c, elapsed, err := w.command(node, cmd, window, false)
	if err != nil {
		// Delivering the command itself failed (node down, out of range,
		// or channel jammed): report the explicit verdict with the error.
		out = &PingOutput{ResponseDelay: elapsed, Sent: opts.Rounds,
			Verdict: fmt.Sprintf("command delivery to node %d failed (node down, out of range, or channel jammed)", node)}
		return out, err
	}
	out = &PingOutput{ResponseDelay: elapsed, Sent: opts.Rounds}
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
		case KindStatus:
			if r.Status.Code == StatusOK {
				out.Protocol = r.Status.Msg
			}
		}
	}
	if len(c.replies) == 0 {
		out.Verdict = "no response: controller unreachable within the response window"
		return out, errors.New("core: no ping reply within the response window")
	}
	// Rounds whose result reply never made it back count as lost: the
	// statistics block must always account for every round sent, even
	// when the reply stream itself was clipped by losses or the window.
	if missing := out.Sent - (out.Received + out.Lost); missing > 0 {
		out.Lost += missing
	}
	switch {
	case out.Received == 0 && out.Lost > 0:
		out.Verdict = fmt.Sprintf("destination %d unreachable: all %d round(s) lost", opts.Dst, out.Lost)
	case out.Lost > 0:
		out.Verdict = fmt.Sprintf("partial: %d/%d round(s) lost", out.Lost, out.Sent)
	default:
		out.Verdict = "ok"
	}
	return out, firstStatusErr(c)
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
	Reports []TimedHopReport
	// Sent/Received/Lost mirror the paper's statistics block (per hop).
	Sent, Received, Lost int
	// Protocol is the carrying protocol's display name.
	Protocol string
	// ResponseDelay is the time until the final report (or window).
	ResponseDelay sim.Time
	// Verdict is the interpreter's one-line reading of the outcome:
	// "destination reached...", a "path broke at hop k" statement, or
	// an explicit failure. Set even when Traceroute returns an error.
	Verdict string
	// FailedHop is the 1-based hop index where the path broke (0 when
	// the walk completed or produced no reports at all).
	FailedHop int
	// Gaps lists 1-based hop numbers below the highest hop seen whose
	// report never arrived: the probe walk continued past them, but the
	// report routed back to the user was lost in the network. The
	// display layer prints these as the classic "*" lines — partial
	// knowledge beats a failed command.
	Gaps []int
}

// Traceroute runs the traceroute command on node toward opts.Dst,
// streaming per-hop reports. The command finishes when the
// destination's report arrives (the controller then closes the stream)
// or when the window expires.
func (w *Workstation) Traceroute(node phys.NodeID, opts TrOptions) (out *TracerouteOutput, err error) {
	if err := (&opts).normalize(); err != nil {
		return nil, err
	}
	// The traceroute span covers the whole hop walk: every probe,
	// retry, and report routed back carries this id.
	span := w.tel.BeginSpan(WorkstationID, "traceroute",
		telemetry.Node("node", node), telemetry.Node("dst", opts.Dst))
	defer func() {
		verdict := ""
		if out != nil {
			verdict = out.Verdict
		}
		w.tel.EndSpan(span, telemetry.String("verdict", verdict))
	}()
	cmd := Command{Kind: KindTraceroute, Dst: opts.Dst, Rounds: 1, Length: opts.Length,
		RouterPort: opts.RouterPort, Retries: opts.ProbeRetries}
	// The listen window mirrors the controller's session budget (which
	// accounts for per-hop retries) plus the usual command window.
	window := ResponseWindow + opts.SessionBudget()
	start := w.eng.Now()
	c, elapsed, err := w.command(node, cmd, window, true)
	if err != nil {
		out = &TracerouteOutput{ResponseDelay: elapsed,
			Verdict: fmt.Sprintf("command delivery to node %d failed (node down, out of range, or channel jammed)", node)}
		return out, err
	}
	out = &TracerouteOutput{}
	for i, r := range c.replies {
		switch r.Kind {
		case KindTrHopReport:
			out.Reports = append(out.Reports, TimedHopReport{
				TrHopReport: r.TrHop,
				At:          c.times[i],
				Delay:       c.times[i] - start,
			})
			out.Sent++
			if r.TrHop.Lost {
				out.Lost++
			} else {
				out.Received++
			}
		case KindStatus:
			if r.Status.Code == StatusOK {
				out.Protocol = r.Status.Msg
			}
		}
	}
	out.ResponseDelay = w.eng.Now() - start
	if len(c.replies) == 0 {
		out.Verdict = "no response: controller unreachable within the response window"
		return out, errors.New("core: no traceroute reply within the response window")
	}
	out.Gaps = hopGaps(out.Reports)
	out.Verdict, out.FailedHop = trVerdict(opts.Dst, out.Reports)
	return out, firstStatusErr(c)
}

// hopGaps finds the hop numbers missing from a report sequence: hops
// the walk passed (some later hop reported) whose own report was lost
// on its way back to the workstation.
func hopGaps(reports []TimedHopReport) []int {
	maxHop := 0
	seen := make(map[int]bool, len(reports))
	for _, r := range reports {
		seen[r.Hop] = true
		if r.Hop > maxHop {
			maxHop = r.Hop
		}
	}
	var gaps []int
	for h := 1; h < maxHop; h++ {
		if !seen[h] {
			gaps = append(gaps, h)
		}
	}
	return gaps
}

// trVerdict reads a traceroute's hop reports into a one-line outcome
// and, when the path broke, the 1-based failing hop.
func trVerdict(dst phys.NodeID, reports []TimedHopReport) (string, int) {
	if len(reports) == 0 {
		return "no hop reports: no route toward the destination, or all reports lost", 0
	}
	last := reports[len(reports)-1]
	switch {
	case last.Final && !last.Lost:
		return fmt.Sprintf("destination %d reached in %d hop(s)", dst, last.Hop), 0
	case last.Lost && last.From != 0:
		return fmt.Sprintf("path broke at hop %d: node %d did not answer its probe (crashed, jammed, or link down)",
			last.Hop, last.From), last.Hop
	case last.Lost:
		return fmt.Sprintf("path broke at hop %d: no next hop toward the destination (route lost)",
			last.Hop), last.Hop
	default:
		return fmt.Sprintf("incomplete: last report from hop %d, session cut by the response window", last.Hop), 0
	}
}

// StatsOutput is the interpreter-side result of a stats query.
type StatsOutput struct {
	Node    NodeStats
	Routers []RouterStats
}

// Stats reads a node's link/stack counters and routing protocol state.
func (w *Workstation) Stats(node phys.NodeID) (*StatsOutput, error) {
	c, _, err := w.command(node, Command{Kind: KindStatsGet}, ResponseWindow, false)
	if err != nil {
		return nil, err
	}
	out := &StatsOutput{}
	gotNode := false
	for _, r := range c.replies {
		switch r.Kind {
		case KindNodeStats:
			out.Node = r.Node
			gotNode = true
		case KindRouterStats:
			out.Routers = append(out.Routers, r.Router)
		}
	}
	if len(c.replies) == 0 {
		return nil, errors.New("core: no reply within the response window")
	}
	if err := firstStatusErr(c); err != nil {
		return nil, err
	}
	if !gotNode {
		return nil, errors.New("core: stats reply lacked the node record")
	}
	return out, nil
}

// HealthOutput is one node's answer to the health query: what the
// stats, energy, radio-get and neighbor-list commands report, from one
// transfer. Neighbor rows carry link information and no name.
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
	c, _, err := w.command(node, Command{Kind: KindHealthGet}, ResponseWindow, false)
	if err != nil {
		return nil, err
	}
	out := &HealthOutput{}
	gotRadio := false
	for _, r := range c.replies {
		switch r.Kind {
		case KindNodeStats:
			out.Stats = r.Node
		case KindHealthRadio:
			out.Radio, out.Energy = r.Health.Radio, r.Health.Energy
			gotRadio = true
		case KindNbrRows:
			out.Neighbors = append(out.Neighbors, r.NbrRows.Rows...)
		}
	}
	if !gotRadio {
		return out, errors.New("core: no radio settings in the health reply within the response window")
	}
	return out, nil
}

// Energy reads a node's battery account.
func (w *Workstation) Energy(node phys.NodeID) (EnergyStats, error) {
	c, _, err := w.command(node, Command{Kind: KindEnergyGet}, ResponseWindow, false)
	if err != nil {
		return EnergyStats{}, err
	}
	for _, r := range c.replies {
		if r.Kind == KindEnergyStats {
			return r.Energy, firstStatusErr(c)
		}
	}
	return EnergyStats{}, errors.New("core: no energy reply within the response window")
}

// FsList reads a node's LiteOS file-tree directory ("" or "/" for the
// node root).
func (w *Workstation) FsList(node phys.NodeID, path string) ([]FsEntry, error) {
	c, _, err := w.command(node, Command{Kind: KindFsList, Path: path}, ResponseWindow, false)
	if err != nil {
		return nil, err
	}
	var out []FsEntry
	for _, r := range c.replies {
		if r.Kind == KindFsEntry {
			out = append(out, r.Fs)
		}
	}
	if len(c.replies) == 0 {
		return nil, errors.New("core: no reply within the response window")
	}
	return out, firstStatusErr(c)
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
	c, _, err := w.command(node, Command{Kind: KindLogDump, Count: count}, ResponseWindow, false)
	if err != nil {
		return nil, err
	}
	var out []LogEntry
	for _, r := range c.replies {
		if r.Kind == KindLogEntry {
			out = append(out, r.Log)
		}
	}
	if len(c.replies) == 0 {
		return nil, errors.New("core: no reply within the response window")
	}
	return out, firstStatusErr(c)
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
		for _, r := range c.replies {
			if r.Kind == KindRadioInfo {
				out[id] = r.Radio
			}
		}
	}
	return out, nil
}
