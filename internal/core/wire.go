// Package core implements LiteView, the paper's contribution: an
// interactive, application-independent toolkit for end-user diagnosis of
// communication paths in sensor networks.
//
// The toolkit has two halves joined by a reliable one-hop exchange
// protocol:
//
//   - a command interpreter on the management workstation (package
//     core's Workstation type), which translates user commands into
//     radio messages, tracks session context, and formats replies; and
//   - a runtime controller on every node (Controller), a process that
//     executes commands by calling kernel system calls, reconfiguring
//     the radio, reading the neighbor table, and spawning the ping and
//     traceroute command processes.
//
// The ping and traceroute engines live in this package too: they are
// individual processes subscribing to their own stack ports, so they
// work over any routing protocol selected at runtime by port number.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf8"

	"liteview/internal/phys"
)

// Well-known stack ports used by LiteView.
const (
	// ControllerPort carries interpreter↔controller management traffic.
	ControllerPort byte = 3
	// PingPort is the ping command's process-to-process port.
	PingPort byte = 20
	// TraceroutePort is the traceroute command's port.
	TraceroutePort byte = 21
)

// Kind identifies a management message type. Each user command
// translates into "a sequence of radio messages [where] each message
// header corresponds to one unique type".
type Kind byte

const (
	kindInvalid Kind = iota
	// Commands (interpreter → controller).
	KindRadioGet
	KindSetPower
	KindSetChannel
	KindNbrList
	KindNbrBlacklist
	KindNbrUpdate
	KindPing
	KindTraceroute
	KindLogCtl
	KindLogDump
	KindStatsGet
	KindEnergyGet
	KindFsList
	// Replies (controller → interpreter).
	KindRadioInfo
	KindStatus
	// kindRetiredNbrEntry and kindRetiredEnergyStats are the bytes of
	// two retired replies, a named neighbor row and the battery account
	// alone: the neighbor list and the energy command now answer with
	// the health query's messages. The bytes stay reserved, so every
	// other kind keeps its byte, and no decoder accepts them.
	kindRetiredNbrEntry
	KindPingResult
	KindPingHops
	KindTrHopReport
	KindLogEntry
	KindNodeStats
	KindRouterStats
	kindRetiredEnergyStats
	KindFsEntry
	// The health query and its two compact replies, appended so that
	// every earlier kind keeps its byte.
	KindHealthGet
	KindHealthRadio
	KindNbrRows
)

var kindNames = [...]string{
	KindRadioGet: "radio-get", KindSetPower: "set-power",
	KindSetChannel: "set-channel", KindNbrList: "nbr-list",
	KindNbrBlacklist: "nbr-blacklist", KindNbrUpdate: "nbr-update",
	KindPing: "ping", KindTraceroute: "traceroute",
	KindRadioInfo: "radio-info", KindStatus: "status",
	KindPingResult: "ping-result", KindPingHops: "ping-hops",
	KindTrHopReport: "tr-hop-report", KindLogCtl: "log-ctl",
	KindLogDump: "log-dump", KindLogEntry: "log-entry",
	KindStatsGet: "stats-get", KindNodeStats: "node-stats",
	KindRouterStats: "router-stats", KindEnergyGet: "energy-get",
	KindFsList: "fs-list", KindFsEntry: "fs-entry",
	KindHealthGet: "health-get", KindHealthRadio: "health-radio",
	KindNbrRows: "nbr-rows",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Status codes in KindStatus replies.
const (
	StatusOK byte = iota
	StatusErr
	StatusBadParam
	StatusUnknownNeighbor
	StatusBusy
	// StatusNoRoute reports that the carrying routing protocol had no
	// path toward the requested destination (appended after the original
	// codes; the enum is append-only like Kind).
	StatusNoRoute
)

// ErrShortMessage reports a truncated wire message.
var ErrShortMessage = errors.New("core: short message")

// Message is a LiteView radio message. Its fields method lists the
// message's fields once, in wire order; the same list encodes and
// decodes it, so the two directions cannot disagree.
type Message interface{ fields(*codec) }

// Encode serialises a message. It refuses, rather than wrapping, an int
// that does not fit its one-byte field, and a command of unknown kind.
func Encode(m Message) ([]byte, error) {
	var c codec
	m.fields(&c)
	if c.err != nil {
		return nil, c.err
	}
	return c.b, nil
}

// decode parses data into m. Bytes past m's layout are ignored.
func decode(data []byte, m Message) error {
	c := codec{b: data, dec: true}
	m.fields(&c)
	return c.err
}

// wireLen is the encoded size of m.
func wireLen(m Message) int {
	b, _ := Encode(m)
	return len(b)
}

// codec walks a message's fields in wire order, big endian: encoding
// appends each field to b, decoding reads it from b at off. Every field
// method copies the field's value in and out, so after it returns the
// field holds what is on the wire in both directions. The first error
// sticks and later reads return nothing.
type codec struct {
	b   []byte
	off int
	dec bool
	err error
}

// take returns the next n bytes of a decoded message, or nil once it has
// run short.
func (c *codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.b) {
		c.err = ErrShortMessage
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

func (c *codec) u8(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if p := c.take(1); p != nil {
		*v = p[0]
	}
}

func (c *codec) u16(v *uint16) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint16(c.b, *v)
	} else if p := c.take(2); p != nil {
		*v = binary.BigEndian.Uint16(p)
	}
}

func (c *codec) u32(vs ...*uint32) {
	for _, v := range vs {
		if !c.dec {
			c.b = binary.BigEndian.AppendUint32(c.b, *v)
		} else if p := c.take(4); p != nil {
			*v = binary.BigEndian.Uint32(p)
		}
	}
}

func (c *codec) i8(v *int8) {
	b := byte(*v)
	c.u8(&b)
	*v = int8(b)
}

func (c *codec) node(v *phys.NodeID) {
	u := uint16(*v)
	c.u16(&u)
	*v = phys.NodeID(u)
}

// byteInt walks an int carried in one byte.
func (c *codec) byteInt(v *int) { c.byteIntOff(v, 0) }

// byteIntOff walks an int carried in one byte as v+off. Encoding fails on
// a value that would wrap.
func (c *codec) byteIntOff(v *int, off int) {
	if !c.dec && (*v+off < 0 || *v+off > 255) {
		c.err = fmt.Errorf("core: value %d does not fit its one-byte field", *v)
		return
	}
	b := byte(*v + off)
	c.u8(&b)
	*v = int(b) - off
}

// flag walks a bool carried in a whole byte: 1 on the wire, and any
// nonzero byte reads as true.
func (c *codec) flag(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.u8(&b)
	*v = b != 0
}

// bits packs bools into one byte, the first in bit 0.
func (c *codec) bits(v ...*bool) {
	var b byte
	for i, f := range v {
		if *f {
			b |= 1 << i
		}
	}
	c.u8(&b)
	for i, f := range v {
		*f = b&(1<<i) != 0
	}
}

// str walks a string behind a one-byte length; encoding cuts it to 255
// bytes.
func (c *codec) str(v *string) {
	s := *v
	if len(s) > 255 {
		s = s[:255]
	}
	n := byte(len(s))
	c.u8(&n)
	if !c.dec {
		c.b = append(c.b, s...)
	} else if p := c.take(int(n)); p != nil {
		*v = string(p)
	}
}

// text walks free text, the last field of its message, as str does,
// clipped at a character boundary so that the whole message fits one
// transfer message: an error or a log event of any length reaches the
// user cut short, where the endpoint would refuse the whole reply.
// Clipping before the walk bounds what is written, and after it what is
// read, so decode → encode → decode agrees on a message too long to
// have been sent.
func (c *codec) text(v *string) {
	room := maxMsgLen - 1 - len(c.b)
	if c.dec {
		room = maxMsgLen - 1 - c.off
	}
	*v = clipText(*v, room)
	c.str(v)
	*v = clipText(*v, room)
}

// clipText cuts s to at most n bytes without splitting a character.
func clipText(s string, n int) string {
	if len(s) <= n {
		return s
	}
	n = max(n, 0)
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n]
}

// tag walks a message's fixed kind byte; decoding fails on another.
func (c *codec) tag(t byte) {
	b := t
	c.u8(&b)
	if b != t && c.err == nil {
		c.err = fmt.Errorf("core: message kind %d, want %d", b, t)
	}
}

// fill pads an encoded message with pad bytes to *n bytes. Decoding
// consumes the rest of the message and sets *n to its whole length.
func (c *codec) fill(n *int, pad byte) {
	if !c.dec {
		for len(c.b) < *n {
			c.b = append(c.b, pad)
		}
	} else if c.err == nil {
		*n, c.off = len(c.b), len(c.b)
	}
}

// rest walks a payload that runs to the end of the message.
func (c *codec) rest(v *[]byte) {
	if !c.dec {
		c.b = append(c.b, *v...)
	} else if c.err == nil {
		*v, c.off = c.b[c.off:], len(c.b)
	}
}

// hops walks a one-byte count and that many (LQI, RSSI) records.
// Encoding carries at most limit records; decoded records get back as
// their direction.
func (c *codec) hops(recs *[]HopLQ, limit int, back bool) {
	n := min(len(*recs), limit)
	c.byteInt(&n)
	if c.dec && c.err == nil && n > 0 {
		*recs = make([]HopLQ, n)
	}
	for i := range (*recs)[:n] {
		r := &(*recs)[i]
		c.u8(&r.LQI)
		c.i8(&r.RSSI)
		if c.dec {
			r.Back = back
		}
	}
}

// Command is a decoded management command.
type Command struct {
	Kind Kind
	// SetPower / SetChannel argument.
	Value int
	// Target neighbor for blacklist operations.
	Target phys.NodeID
	// On is the blacklist direction (add vs remove).
	On bool
	// PeriodMs is the beacon period for KindNbrUpdate.
	PeriodMs uint32
	// Ping/traceroute parameters.
	Dst        phys.NodeID
	Rounds     int
	Length     int
	RouterPort byte
	// Retries is the per-hop probe retry budget for traceroute. On the
	// wire it travels as retries+1, so a decoded command carries the
	// actual budget: the workstation always sends its normalized budget,
	// and a decoded zero means "no retries". Only a zero byte, which no
	// workstation sends, decodes to -1, and the controller then falls
	// back to the protocol default.
	Retries int
	// Count bounds KindLogDump replies.
	Count int
	// Path selects the directory for KindFsList.
	Path string
}

func (m *Command) fields(c *codec) {
	c.u8((*byte)(&m.Kind))
	switch m.Kind {
	case KindRadioGet, KindNbrList, KindStatsGet, KindEnergyGet, KindHealthGet:
	case KindSetPower, KindSetChannel:
		c.byteInt(&m.Value)
	case KindNbrBlacklist:
		c.node(&m.Target)
		c.flag(&m.On)
	case KindNbrUpdate:
		c.u32(&m.PeriodMs)
	case KindPing, KindTraceroute:
		c.node(&m.Dst)
		c.byteInt(&m.Rounds)
		c.byteInt(&m.Length)
		c.u8(&m.RouterPort)
		if m.Kind == KindTraceroute {
			c.byteIntOff(&m.Retries, 1)
		}
	case KindLogCtl:
		c.flag(&m.On)
	case KindLogDump:
		c.byteInt(&m.Count)
	case KindFsList:
		c.str(&m.Path)
	default:
		// The kind is the only field walked so far, so this verdict also
		// stands for an empty message.
		c.err = fmt.Errorf("core: unknown command kind %d", m.Kind)
	}
}

// DecodeCommand parses a command message.
func DecodeCommand(data []byte) (Command, error) {
	var cmd Command
	if err := decode(data, &cmd); err != nil {
		return Command{}, err
	}
	return cmd, nil
}

// RadioInfo is the KindRadioInfo reply body.
type RadioInfo struct {
	Power   int
	Channel int
}

func (ri *RadioInfo) fields(c *codec) {
	c.tag(byte(KindRadioInfo))
	c.byteInt(&ri.Power)
	c.byteInt(&ri.Channel)
}

// Status is the generic command outcome reply.
type Status struct {
	Code byte
	Msg  string
}

func (s *Status) fields(c *codec) {
	c.tag(byte(KindStatus))
	c.u8(&s.Code)
	c.text(&s.Msg)
}

// NbrEntry is one neighbor table row, as NbrRows carries it. It has no
// name: whoever prints a row names its ID.
type NbrEntry struct {
	ID         phys.NodeID
	LQI        uint8
	RSSI       int8
	PRRPercent uint8
	// DeliveryPercent is the kernel's unicast delivery estimate (EWMA of
	// MAC tx outcomes), carried alongside the beacon-based PRR.
	DeliveryPercent uint8
	Blacklisted     bool
	// Suspect reports that the delivery estimator condemned the link
	// after consecutive unicast failures.
	Suspect bool
}

// PingResult is one round's outcome in a KindPingResult reply.
type PingResult struct {
	Seq     int
	Lost    bool
	RTT     uint32 // microseconds
	LQIFwd  uint8
	LQIBwd  uint8
	RSSIFwd int8
	RSSIBwd int8
	QFwd    uint8
	QBwd    uint8
	Power   uint8
	Channel uint8
	// HopQuality carries per-hop forward-then-backward padding records
	// for multi-hop pings (empty on single-hop). It travels in PingHops
	// messages, not in this one.
	HopQuality []HopLQ
}

func (p *PingResult) fields(c *codec) {
	c.tag(byte(KindPingResult))
	c.byteInt(&p.Seq)
	c.flag(&p.Lost)
	c.u32(&p.RTT)
	c.u8(&p.LQIFwd)
	c.u8(&p.LQIBwd)
	c.i8(&p.RSSIFwd)
	c.i8(&p.RSSIBwd)
	c.u8(&p.QFwd)
	c.u8(&p.QBwd)
	c.u8(&p.Power)
	c.u8(&p.Channel)
}

// HopLQ is one padded hop record surfaced to the user.
type HopLQ struct {
	LQI  uint8
	RSSI int8
	// Back marks records collected on the reply's return path.
	Back bool
}

// PingHops is a continuation reply carrying a chunk of per-hop quality
// records for one ping round: a multi-hop result with many hops does
// not fit a single 802.15.4 packet, so the controller streams the
// padding records in chunks after the round's KindPingResult.
type PingHops struct {
	Seq     int
	Back    bool
	Records []HopLQ
}

// PingHopsChunk bounds the records per continuation message so the
// message fits the payload ceiling; encoding drops records past it.
const PingHopsChunk = 20

func (h *PingHops) fields(c *codec) {
	c.tag(byte(KindPingHops))
	c.byteInt(&h.Seq)
	c.flag(&h.Back)
	c.hops(&h.Records, PingHopsChunk, h.Back)
}

// LogEntry is one node event-log record in a KindLogEntry reply.
type LogEntry struct {
	// AtMs is the event's virtual time in milliseconds since epoch.
	AtMs uint32
	// Tag classifies the event.
	Tag string
	// Msg is the event text.
	Msg string
}

func (e *LogEntry) fields(c *codec) {
	c.tag(byte(KindLogEntry))
	c.u32(&e.AtMs)
	c.str(&e.Tag)
	c.text(&e.Msg)
}

// NodeStats is the node-level half of a stats reply: link-layer and
// stack counters plus the memory budget — the raw material for finding
// "the hotspots of lost packets".
type NodeStats struct {
	UptimeMs     uint32
	MACSent      uint32
	MACReceived  uint32
	MACRetries   uint32
	MACNoAck     uint32
	MACCRCFail   uint32
	MACQueueDrop uint32
	StackDeliver uint32
	StackNoSub   uint32
	RAMUsed      uint16
	RAMFree      uint16
	QueueLen     uint8
}

func (n *NodeStats) fields(c *codec) {
	c.tag(byte(KindNodeStats))
	c.u32(&n.UptimeMs, &n.MACSent, &n.MACReceived, &n.MACRetries, &n.MACNoAck,
		&n.MACCRCFail, &n.MACQueueDrop, &n.StackDeliver, &n.StackNoSub)
	c.u16(&n.RAMUsed)
	c.u16(&n.RAMFree)
	c.u8(&n.QueueLen)
}

// RouterStats is one routing protocol's record in a stats reply,
// including the collection-tree parent when the protocol has one —
// "visibility on the way of routing tree construction".
type RouterStats struct {
	Port        byte
	Name        string
	Originated  uint32
	Forwarded   uint32
	Delivered   uint32
	NoRoute     uint32
	QueueDrops  uint32
	HasParent   bool
	Parent      phys.NodeID
	CostCentile uint16 // path cost ×100 when HasParent
}

func (rs *RouterStats) fields(c *codec) {
	c.tag(byte(KindRouterStats))
	c.u8(&rs.Port)
	c.str(&rs.Name)
	c.u32(&rs.Originated, &rs.Forwarded, &rs.Delivered, &rs.NoRoute, &rs.QueueDrops)
	c.flag(&rs.HasParent)
	if rs.HasParent {
		c.node(&rs.Parent)
		c.u16(&rs.CostCentile)
	}
}

// EnergyStats is a node's battery account, as HealthRadio carries it.
// Energies travel in microjoules (saturating at ~4.3 kJ per state,
// about a day of always-on listening), durations in milliseconds, and
// the battery level in tenths of a percent — every field fits 32 bits
// as a mote would want.
type EnergyStats struct {
	TXuJ, RXuJ, OffuJ      uint32
	TXms, RXms, Offms      uint32
	RemainingPermille      uint16
	EstimatedLifetimeHours uint32
	HasLifetime            bool
}

// HealthRadio is a node's radio settings and battery account in one
// message, 30 B or 34 B with a lifetime estimate. It answers the energy
// command and is part of the health reply.
type HealthRadio struct {
	Radio  RadioInfo
	Energy EnergyStats
}

func (h *HealthRadio) fields(c *codec) {
	c.tag(byte(KindHealthRadio))
	c.byteInt(&h.Radio.Power)
	c.byteInt(&h.Radio.Channel)
	e := &h.Energy
	c.u32(&e.TXuJ, &e.RXuJ, &e.OffuJ, &e.TXms, &e.RXms, &e.Offms)
	c.u16(&e.RemainingPermille)
	c.flag(&e.HasLifetime)
	if e.HasLifetime {
		c.u32(&e.EstimatedLifetimeHours)
	}
}

// NbrRows carries up to NbrRowsChunk neighbor table rows; it answers the
// neighbor list and is part of the health reply. A row is 7 B: ID, LQI,
// RSSI, beacon PRR %, unicast delivery % and a byte of flags
// (blacklisted, suspect).
type NbrRows struct {
	Rows []NbrEntry
}

// NbrRowsChunk bounds the rows per message so the message fits the
// payload ceiling; encoding drops rows past it.
const NbrRowsChunk = 7

func (m *NbrRows) fields(c *codec) {
	c.tag(byte(KindNbrRows))
	n := min(len(m.Rows), NbrRowsChunk)
	c.byteInt(&n)
	if c.dec && c.err == nil && n > 0 {
		m.Rows = make([]NbrEntry, n)
	}
	for i := range m.Rows[:n] {
		e := &m.Rows[i]
		c.node(&e.ID)
		c.u8(&e.LQI)
		c.i8(&e.RSSI)
		c.u8(&e.PRRPercent)
		c.u8(&e.DeliveryPercent)
		c.bits(&e.Blacklisted, &e.Suspect)
	}
}

// FsEntry is one row of a node's LiteOS file-tree listing — the "every
// node is a directory" view LiteOS gives the shell. Directories have
// Dir set; file sizes are bytes (flash for images, RAM for processes).
type FsEntry struct {
	Name string
	Size uint32
	Dir  bool
}

func (e *FsEntry) fields(c *codec) {
	c.tag(byte(KindFsEntry))
	c.str(&e.Name)
	c.u32(&e.Size)
	c.flag(&e.Dir)
}

// TrHopReport is one traceroute hop's report.
type TrHopReport struct {
	Hop     int
	From    phys.NodeID // the probed node ("Reply from ...")
	Lost    bool
	RTT     uint32 // microseconds, measured at the probing hop
	LQIFwd  uint8
	LQIBwd  uint8
	RSSIFwd int8
	RSSIBwd int8
	QFwd    uint8
	QBwd    uint8
	Final   bool // the probed node is the traceroute destination
}

func (t *TrHopReport) fields(c *codec) {
	c.tag(byte(KindTrHopReport))
	c.byteInt(&t.Hop)
	c.node(&t.From)
	c.bits(&t.Lost, &t.Final)
	c.u32(&t.RTT)
	c.u8(&t.LQIFwd)
	c.u8(&t.LQIBwd)
	c.i8(&t.RSSIFwd)
	c.i8(&t.RSSIBwd)
	c.u8(&t.QFwd)
	c.u8(&t.QBwd)
}

// Reply is a decoded controller reply of any kind.
type Reply struct {
	Kind     Kind
	Radio    RadioInfo
	Status   Status
	Ping     PingResult
	PingHops PingHops
	TrHop    TrHopReport
	Log      LogEntry
	Node     NodeStats
	Router   RouterStats
	Fs       FsEntry
	Health   HealthRadio
	NbrRows  NbrRows
}

// body returns the member of r that holds a reply of r.Kind, or nil when
// r.Kind is not a reply kind.
func (r *Reply) body() Message {
	switch r.Kind {
	case KindRadioInfo:
		return &r.Radio
	case KindStatus:
		return &r.Status
	case KindPingResult:
		return &r.Ping
	case KindPingHops:
		return &r.PingHops
	case KindTrHopReport:
		return &r.TrHop
	case KindLogEntry:
		return &r.Log
	case KindNodeStats:
		return &r.Node
	case KindRouterStats:
		return &r.Router
	case KindFsEntry:
		return &r.Fs
	case KindHealthRadio:
		return &r.Health
	case KindNbrRows:
		return &r.NbrRows
	}
	return nil
}

// DecodeReply parses any controller reply message.
func DecodeReply(data []byte) (Reply, error) {
	var rep Reply
	if len(data) > 0 {
		rep.Kind = Kind(data[0])
	}
	body := rep.body()
	if body == nil {
		return Reply{}, fmt.Errorf("core: unknown reply kind %d", rep.Kind)
	}
	if err := decode(data, body); err != nil {
		return Reply{}, err
	}
	return rep, nil
}
