package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"liteview/internal/liteos"
	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// Footprints of the LiteView binaries, as the paper reports them: the
// compiled ping image consumes 2148 bytes of flash and 278 bytes of
// static RAM; traceroute consumes 2820 and 272. The controller's own
// footprint is an estimate in the same ballpark (the paper does not
// report it separately).
var (
	// PingBinary is the ping command image.
	PingBinary = liteos.Binary{Name: "ping", Flash: 2148, RAM: 278}
	// TracerouteBinary is the traceroute command image.
	TracerouteBinary = liteos.Binary{Name: "traceroute", Flash: 2820, RAM: 272}
	// ControllerBinary is the runtime controller image.
	ControllerBinary = liteos.Binary{Name: "liteview-controller", Flash: 3200, RAM: 310}
	// HealthQuery is the health query's share of the controller image:
	// the controller runs it inline, so it is not installed as a binary
	// of its own. Flash is an estimate of its handler within the
	// controller's flash: the row packing and the two compact layouts,
	// since the reads are the stats and energy commands'. RAM is the
	// largest reply it holds until the transfer is acknowledged, a full
	// neighbor table's, measured from the layouts.
	HealthQuery = liteos.Binary{Name: "health (in controller)", Flash: 320,
		RAM: healthReplyBytes(neighbor.DefaultCapacity)}
)

// healthReplyBytes is the size of the health reply for a neighbor table
// of rows entries, with a lifetime estimate.
func healthReplyBytes(rows int) int {
	n := wireLen(&NodeStats{}) + wireLen(&HealthRadio{Energy: EnergyStats{HasLifetime: true}}) + wireLen(&Status{})
	for ; rows > 0; rows -= NbrRowsChunk {
		n += wireLen(&NbrRows{Rows: make([]NbrEntry, min(rows, NbrRowsChunk))})
	}
	return n
}

// Controller is the node-side LiteView runtime controller: a process
// that coexists with user applications, executes management commands
// from the workstation, and spawns the ping/traceroute command
// processes.
type Controller struct {
	eng     *sim.Engine
	os      *liteos.Node
	ep      *Endpoint
	ping    *PingEngine
	tr      *TracerouteEngine
	routers RouterLookup
	busy    bool
	proc    *liteos.Process
	// tel, when set, receives controller-layer telemetry events.
	tel *telemetry.Recorder
}

// SetTelemetry points the controller (and its reliable endpoint) at a
// telemetry recorder (nil detaches).
func (c *Controller) SetTelemetry(rec *telemetry.Recorder) {
	c.tel = rec
	c.ep.SetTelemetry(rec)
}

// NewController installs the LiteView binaries on the node, starts the
// controller process, and brings up the command engines. routers
// resolves routing protocols by port at runtime.
func NewController(os *liteos.Node, routers RouterLookup) (*Controller, error) {
	if routers == nil {
		routers = func(byte) (*routing.Router, bool) { return nil, false }
	}
	eng := os.Engine()
	for _, b := range []liteos.Binary{ControllerBinary, PingBinary, TracerouteBinary} {
		if err := os.InstallBinary(b); err != nil {
			return nil, err
		}
	}
	// The controller itself runs for the node's lifetime.
	os.SysSetParamBuffer("")
	proc, err := os.StartProcess(ControllerBinary.Name)
	if err != nil {
		return nil, err
	}
	_ = proc
	c := &Controller{eng: eng, os: os, routers: routers}
	c.ep, err = NewEndpoint(eng, os.Stack(), DefaultReliableConfig(), c.handle)
	if err != nil {
		return nil, err
	}
	c.ping, err = NewPingEngine(eng, os, routers)
	if err != nil {
		return nil, err
	}
	c.tr, err = NewTracerouteEngine(eng, os, routers)
	if err != nil {
		return nil, err
	}
	// Crash/reboot lifecycle: a crash loses every in-flight command and
	// transfer; a reboot restarts the controller process and re-registers
	// on the management channel.
	os.OnCrash(c.onCrash)
	os.OnReboot(c.onReboot)
	return c, nil
}

// onCrash drops all RAM-resident controller state. The process itself
// was already killed by the kernel teardown.
func (c *Controller) onCrash() {
	c.ep.Reset()
	c.ping.Reset()
	c.tr.Reset()
	c.busy = false
	c.proc = nil
}

// onReboot re-registers the controller: the boot image restarts the
// controller process exactly as the node's first boot did.
func (c *Controller) onReboot() {
	c.os.SysSetParamBuffer("")
	if _, err := c.os.StartProcess(ControllerBinary.Name); err != nil {
		c.os.SysLogEvent("controller", "restart failed: %v", err)
		return
	}
	c.os.SysLogEvent("controller", "re-registered after reboot")
}

// Endpoint exposes the controller's reliable-protocol endpoint (for
// stats in tests and benchmarks).
func (c *Controller) Endpoint() *Endpoint { return c.ep }

// Ping exposes the node's ping engine (used directly by node-local
// diagnosis, e.g. a user logged into the node's shell).
func (c *Controller) Ping() *PingEngine { return c.ping }

// Traceroute exposes the node's traceroute engine.
func (c *Controller) Traceroute() *TracerouteEngine { return c.tr }

// handle executes one management command from the workstation.
func (c *Controller) handle(from phys.NodeID, payload []byte, info medium.RxInfo, broadcast bool) {
	cmd, err := DecodeCommand(payload)
	if err != nil {
		c.reply(from, broadcast, &Status{Code: StatusBadParam, Msg: err.Error()})
		return
	}
	c.os.SysLogEvent("controller", "command %v from %d", cmd.Kind, from)
	if c.tel.Recording() {
		c.tel.Emit(c.os.ID(), telemetry.LayerController, "command",
			telemetry.String("kind", cmd.Kind.String()),
			telemetry.Node("from", from))
	}
	switch cmd.Kind {
	case KindRadioGet:
		ri := c.radioInfo()
		c.reply(from, broadcast, &ri)
	case KindSetPower:
		if err := c.os.Radio().SetPowerLevel(cmd.Value); err != nil {
			c.reply(from, broadcast, &Status{Code: StatusBadParam, Msg: err.Error()})
			return
		}
		c.reply(from, broadcast, &Status{Code: StatusOK})
	case KindSetChannel:
		if cmd.Value < radio.MinChannel || cmd.Value > radio.MaxChannel {
			c.reply(from, broadcast, &Status{Code: StatusBadParam,
				Msg: fmt.Sprintf("channel %d out of range", cmd.Value)})
			return
		}
		// Confirm first, retune after the reply exchange completes —
		// otherwise the node vanishes from the management channel with
		// the acknowledgement still in its queue.
		ch := cmd.Value
		c.send(from, broadcast, func(error) {
			if err := c.os.Radio().SetChannel(ch); err != nil {
				c.os.SysLogEvent("controller", "set channel: %v", err)
			}
		}, &Status{Code: StatusOK})
	case KindNbrList:
		c.replyRows(from, broadcast)
	case KindNbrBlacklist:
		code := StatusOK
		msg := ""
		if err := c.os.SysNeighborTable().Blacklist(cmd.Target, cmd.On); err != nil {
			code, msg = StatusUnknownNeighbor, err.Error()
		}
		c.reply(from, broadcast, &Status{Code: code, Msg: msg})
	case KindNbrUpdate:
		if err := c.os.Neighbors().SetPeriod(sim.Time(cmd.PeriodMs) * time.Millisecond); err != nil {
			c.reply(from, broadcast, &Status{Code: StatusBadParam, Msg: err.Error()})
			return
		}
		c.reply(from, broadcast, &Status{Code: StatusOK})
	case KindPing:
		c.runPing(from, broadcast, cmd)
	case KindTraceroute:
		c.runTraceroute(from, broadcast, cmd)
	case KindLogCtl:
		if cmd.On {
			c.os.Log().Enable()
		} else {
			c.os.Log().Disable()
		}
		c.reply(from, broadcast, &Status{Code: StatusOK})
	case KindLogDump:
		c.replyLogDump(from, broadcast, cmd.Count)
	case KindStatsGet:
		c.replyStats(from, broadcast)
	case KindEnergyGet:
		hr := c.healthRadio()
		c.reply(from, broadcast, &hr, &Status{Code: StatusOK})
	case KindHealthGet:
		c.replyHealth(from, broadcast)
	case KindFsList:
		c.replyFsList(from, broadcast, cmd.Path)
	default:
		c.reply(from, broadcast, &Status{Code: StatusBadParam, Msg: "unknown command"})
	}
}

// reply sends messages back as one transfer.
func (c *Controller) reply(to phys.NodeID, broadcast bool, msgs ...Message) {
	c.send(to, broadcast, nil, msgs...)
}

// send encodes msgs and sends them back as one transfer, after the group
// backoff when the command was broadcast to many nodes; done, when set,
// runs once the transfer ends.
func (c *Controller) send(to phys.NodeID, broadcast bool, done func(error), msgs ...Message) {
	data := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			c.os.SysLogEvent("controller", "reply failed: %v", err)
			return
		}
		data[i] = b
	}
	var delay sim.Time
	if broadcast {
		delay = c.ep.GroupBackoff()
	}
	if err := c.ep.Send(to, data, delay, done); err != nil {
		c.os.SysLogEvent("controller", "reply failed: %v", err)
	}
}

// replyHealth answers the health query with one transfer: the node's
// counters, its radio settings with its battery account, then the
// neighbor list's reply. That is six messages for a full 16-row table.
func (c *Controller) replyHealth(to phys.NodeID, broadcast bool) {
	node := c.nodeStats()
	hr := c.healthRadio()
	c.replyRows(to, broadcast, &node, &hr)
}

// replyRows sends msgs, then the kernel neighbor table packed
// NbrRowsChunk rows a message, then a status, as one transfer. With no
// msgs it is the neighbor list's reply.
func (c *Controller) replyRows(to phys.NodeID, broadcast bool, msgs ...Message) {
	rows := c.neighborRows()
	for off := 0; off < len(rows); off += NbrRowsChunk {
		msgs = append(msgs, &NbrRows{Rows: rows[off:min(off+NbrRowsChunk, len(rows))]})
	}
	msgs = append(msgs, &Status{Code: StatusOK})
	c.reply(to, broadcast, msgs...)
}

// radioInfo reads the node's radio settings.
func (c *Controller) radioInfo() RadioInfo {
	return RadioInfo{Power: c.os.Radio().PowerLevel(), Channel: c.os.Radio().Channel()}
}

// neighborRows reads the kernel neighbor table as reply rows.
func (c *Controller) neighborRows() []NbrEntry {
	entries := c.os.SysNeighborTable().Entries()
	rows := make([]NbrEntry, len(entries))
	for i, e := range entries {
		rows[i] = NbrEntry{
			ID:              e.ID,
			LQI:             uint8(clampInt(int(e.LQI+0.5), 0, 255)),
			RSSI:            int8(clampInt(int(e.RSSI), -128, 127)),
			PRRPercent:      uint8(clampInt(int(e.PRR*100+0.5), 0, 100)),
			DeliveryPercent: uint8(clampInt(int(e.Delivery*100+0.5), 0, 100)),
			Blacklisted:     e.Blacklisted,
			Suspect:         e.Suspect,
		}
	}
	return rows
}

// nodeStats reads the node's link and stack counters and its memory
// budget.
func (c *Controller) nodeStats() NodeStats {
	ms := c.os.MAC().Stats()
	ss := c.os.Stack().Stats()
	return NodeStats{
		UptimeMs:     uint32(c.os.Uptime() / time.Millisecond),
		MACSent:      uint32(ms.Sent),
		MACReceived:  uint32(ms.Received),
		MACRetries:   uint32(ms.FrameRetries),
		MACNoAck:     uint32(ms.NoAck),
		MACCRCFail:   uint32(ms.CRCFailures),
		MACQueueDrop: uint32(ms.QueueDrops),
		StackDeliver: uint32(ss.Delivered),
		StackNoSub:   uint32(ss.NoSubscriber),
		RAMUsed:      uint16(c.os.RAMUsed()),
		RAMFree:      uint16(c.os.RAMFree()),
		QueueLen:     uint8(c.os.MAC().QueueLen()),
	}
}

// replyStats reports the node's link/stack counters and one record per
// attached routing protocol.
func (c *Controller) replyStats(to phys.NodeID, broadcast bool) {
	node := c.nodeStats()
	msgs := []Message{&node}
	// Walk the port space for attached protocols: the lookup is the
	// only window the controller has (protocol independence).
	for port := 1; port < 256; port++ {
		rt, ok := c.routers(byte(port))
		if !ok || rt == nil || rt.Port() != byte(port) {
			continue
		}
		st := rt.Stats()
		rs := RouterStats{
			Port:       byte(port),
			Name:       rt.Name(),
			Originated: uint32(st.Originated),
			Forwarded:  uint32(st.Forwarded),
			Delivered:  uint32(st.Delivered),
			NoRoute:    uint32(st.DroppedNoRoute),
			QueueDrops: uint32(st.DroppedQueue),
		}
		if parent, cost, hasPath, isTree := routing.TreeState(rt); isTree && hasPath {
			rs.HasParent = true
			rs.Parent = parent
			cc := cost * 100
			if cc > 65535 {
				cc = 65535
			}
			rs.CostCentile = uint16(cc)
		}
		msgs = append(msgs, &rs)
	}
	msgs = append(msgs, &Status{Code: StatusOK})
	c.reply(to, broadcast, msgs...)
}

// healthRadio reads the node's radio settings and battery account.
func (c *Controller) healthRadio() HealthRadio {
	st := c.os.Energy().Stats()
	toUJ := func(j float64) uint32 {
		v := j * 1e6
		if v > float64(^uint32(0)) {
			return ^uint32(0)
		}
		return uint32(v)
	}
	es := EnergyStats{
		TXuJ:              toUJ(st.TXJ),
		RXuJ:              toUJ(st.RXJ),
		OffuJ:             toUJ(st.OffJ),
		TXms:              uint32(st.TXTime / time.Millisecond),
		RXms:              uint32(st.RXTime / time.Millisecond),
		Offms:             uint32(st.OffTime / time.Millisecond),
		RemainingPermille: uint16(c.os.Energy().RemainingFraction() * 1000),
	}
	if life, ok := c.os.Energy().EstimateLifetime(); ok {
		es.HasLifetime = true
		es.EstimatedLifetimeHours = uint32(life / time.Hour)
	}
	return HealthRadio{Radio: c.radioInfo(), Energy: es}
}

// replyFsList renders the node's LiteOS file-tree view: /apps holds the
// installed images (size = flash), /proc the running processes (size =
// RAM), /dev the kernel devices.
func (c *Controller) replyFsList(to phys.NodeID, broadcast bool, path string) {
	var entries []FsEntry
	switch strings.Trim(path, "/") {
	case "":
		entries = []FsEntry{
			{Name: "apps", Dir: true},
			{Name: "proc", Dir: true},
			{Name: "dev", Dir: true},
		}
	case "apps":
		for _, name := range c.os.Binaries() {
			b, _ := c.os.BinaryInfo(name)
			entries = append(entries, FsEntry{Name: name, Size: uint32(b.Flash)})
		}
	case "proc":
		for _, pid := range c.os.Processes() {
			p, _ := c.os.Process(pid)
			b, _ := c.os.BinaryInfo(p.Binary)
			entries = append(entries, FsEntry{Name: fmt.Sprintf("%d-%s", pid, p.Binary), Size: uint32(b.RAM)})
		}
	case "dev":
		entries = []FsEntry{
			{Name: "radio"},
			{Name: "battery"},
			{Name: fmt.Sprintf("log(%d)", len(c.os.Log().Entries()))},
		}
	default:
		c.reply(to, broadcast, &Status{Code: StatusBadParam,
			Msg: fmt.Sprintf("no such directory %q", path)})
		return
	}
	msgs := make([]Message, 0, len(entries)+1)
	for i := range entries {
		msgs = append(msgs, &entries[i])
	}
	msgs = append(msgs, &Status{Code: StatusOK})
	c.reply(to, broadcast, msgs...)
}

// replyLogDump streams the newest count event-log entries (all when
// count is zero) followed by a closing status.
func (c *Controller) replyLogDump(to phys.NodeID, broadcast bool, count int) {
	entries := c.os.Log().Entries()
	if count > 0 && len(entries) > count {
		entries = entries[len(entries)-count:]
	}
	msgs := make([]Message, 0, len(entries)+1)
	for _, e := range entries {
		msgs = append(msgs, &LogEntry{
			AtMs: uint32(e.At / time.Millisecond),
			Tag:  e.Tag,
			Msg:  e.Msg,
		})
	}
	msgs = append(msgs, &Status{Code: StatusOK, Msg: fmt.Sprintf("%d entries", len(entries))})
	c.reply(to, broadcast, msgs...)
}

// startStatus classifies a command-start failure. Routing-layer "no
// path" errors get their own wire code so the interpreter can surface
// a typed ErrNoRoute — the management link worked; the network route
// did not — instead of a generic parameter error.
func startStatus(err error) *Status {
	if errors.Is(err, routing.ErrNoRoute) || errors.Is(err, routing.ErrNoUnicastPath) {
		return &Status{Code: StatusNoRoute, Msg: err.Error()}
	}
	return &Status{Code: StatusBadParam, Msg: err.Error()}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// runPing spawns the ping command process and streams results back when
// all rounds complete.
func (c *Controller) runPing(from phys.NodeID, broadcast bool, cmd Command) {
	if c.busy {
		c.reply(from, broadcast, &Status{Code: StatusBusy, Msg: "command in progress"})
		return
	}
	// The interpreter's parameters reach the new process through the
	// kernel parameter buffer, via the dedicated system call.
	c.os.SysSetParamBuffer(fmt.Sprintf("%d round=%d length=%d port=%d", cmd.Dst, cmd.Rounds, cmd.Length, cmd.RouterPort))
	proc, err := c.os.StartProcess(PingBinary.Name)
	if err != nil {
		c.reply(from, broadcast, &Status{Code: StatusErr, Msg: err.Error()})
		return
	}
	opts := PingOptions{Dst: cmd.Dst, Rounds: cmd.Rounds, Length: cmd.Length, RouterPort: cmd.RouterPort}
	c.busy = true
	c.proc = proc
	err = c.ping.Start(opts, func(results []PingResult) {
		msgs := make([]Message, 0, len(results)+1)
		for i, r := range results {
			if c.tel.Recording() {
				c.tel.Emit(c.os.ID(), telemetry.LayerController, "ping-result",
					telemetry.Node("dst", cmd.Dst),
					telemetry.Int("seq", r.Seq),
					telemetry.Bool("lost", r.Lost),
					telemetry.Float("rtt_ms", float64(r.RTT)/1000))
			}
			msgs = append(msgs, &results[i])
			// Per-hop padding records of multi-hop rounds ride in
			// continuation chunks: they do not fit one packet.
			var fwd, bwd []HopLQ
			for _, h := range r.HopQuality {
				if h.Back {
					bwd = append(bwd, h)
				} else {
					fwd = append(fwd, h)
				}
			}
			for off := 0; off < len(fwd); off += PingHopsChunk {
				end := min(off+PingHopsChunk, len(fwd))
				msgs = append(msgs, &PingHops{Seq: r.Seq, Records: fwd[off:end]})
			}
			for off := 0; off < len(bwd); off += PingHopsChunk {
				end := min(off+PingHopsChunk, len(bwd))
				msgs = append(msgs, &PingHops{Seq: r.Seq, Back: true, Records: bwd[off:end]})
			}
		}
		msgs = append(msgs, &Status{Code: StatusOK, Msg: c.protocolName(cmd.RouterPort)})
		c.reply(from, broadcast, msgs...)
		c.finishCommand()
	})
	if err != nil {
		c.finishCommand()
		c.reply(from, broadcast, startStatus(err))
	}
}

// runTraceroute spawns the traceroute process; hop reports stream back
// one transfer each as they arrive at this (source) node, and a final
// status closes the command. Multi-round traceroutes (the paper's
// round= option) are driven by the interpreter issuing the command
// repeatedly — each walk is an independent session.
func (c *Controller) runTraceroute(from phys.NodeID, broadcast bool, cmd Command) {
	if c.busy {
		c.reply(from, broadcast, &Status{Code: StatusBusy, Msg: "command in progress"})
		return
	}
	c.os.SysSetParamBuffer(fmt.Sprintf("%d round=%d length=%d port=%d", cmd.Dst, cmd.Rounds, cmd.Length, cmd.RouterPort))
	proc, err := c.os.StartProcess(TracerouteBinary.Name)
	if err != nil {
		c.reply(from, broadcast, &Status{Code: StatusErr, Msg: err.Error()})
		return
	}
	opts := TrOptions{Dst: cmd.Dst, Length: cmd.Length, RouterPort: cmd.RouterPort, ProbeRetries: cmd.Retries}
	if cmd.Retries == 0 {
		// The workstation always encodes its normalized retry budget, so
		// zero is an explicit "no retries", not "use the default".
		opts.ProbeRetries = -1
	} else if cmd.Retries < 0 {
		opts.ProbeRetries = 0 // malformed wire value: fall back to default
	}
	c.busy = true
	c.proc = proc
	err = c.tr.Start(opts,
		func(rep TrHopReport) {
			if c.tel.Recording() {
				c.tel.Emit(c.os.ID(), telemetry.LayerController, "tr-hop",
					telemetry.Int("hop", rep.Hop),
					telemetry.Node("from", rep.From),
					telemetry.Bool("lost", rep.Lost),
					telemetry.Float("rtt_ms", float64(rep.RTT)/1000))
			}
			c.reply(from, broadcast, &rep)
		},
		func() {
			c.reply(from, broadcast, &Status{Code: StatusOK, Msg: c.protocolName(cmd.RouterPort)})
			c.finishCommand()
		})
	if err != nil {
		c.finishCommand()
		c.reply(from, broadcast, startStatus(err))
	}
}

// finishCommand releases the command process and the busy latch.
func (c *Controller) finishCommand() {
	c.busy = false
	if c.proc != nil {
		_ = c.proc.Exit()
		c.proc = nil
	}
}

// protocolName resolves the display name of the protocol on a port.
func (c *Controller) protocolName(port byte) string {
	if port == 0 {
		return "direct one-hop"
	}
	if r, ok := c.routers(port); ok {
		return r.Name()
	}
	return fmt.Sprintf("port %d", port)
}
