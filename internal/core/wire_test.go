package core

import (
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"liteview/internal/phys"
	"liteview/internal/stack"
)

func mustEncode(t *testing.T, m Message) []byte {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return b
}

func decodeReply(t *testing.T, m Message) Reply {
	t.Helper()
	rep, err := DecodeReply(mustEncode(t, m))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCommandRoundTrips(t *testing.T) {
	cases := []Command{
		{Kind: KindRadioGet},
		{Kind: KindSetPower, Value: 25},
		{Kind: KindSetChannel, Value: 17},
		{Kind: KindNbrList, WithLink: true},
		{Kind: KindNbrList, WithLink: false},
		{Kind: KindNbrBlacklist, Target: 0x0203, On: true},
		{Kind: KindNbrBlacklist, Target: 7, On: false},
		{Kind: KindNbrUpdate, PeriodMs: 1500},
		{Kind: KindPing, Dst: 9, Rounds: 3, Length: 32, RouterPort: 10},
		{Kind: KindTraceroute, Dst: 3, Rounds: 1, Length: 32, RouterPort: 10},
	}
	for _, c := range cases {
		got, err := DecodeCommand(mustEncode(t, &c))
		if err != nil {
			t.Fatalf("%v: %v", c.Kind, err)
		}
		if got != c {
			t.Fatalf("round trip %v: got %+v, want %+v", c.Kind, got, c)
		}
	}
}

// TestCommandRefusesWrappingValues checks that an int argument outside
// its one-byte field is refused on encode instead of wrapping modulo 256.
func TestCommandRefusesWrappingValues(t *testing.T) {
	for _, c := range []Command{
		{Kind: KindSetPower, Value: 259},
		{Kind: KindSetChannel, Value: 267},
		{Kind: KindSetPower, Value: -1},
		{Kind: KindLogDump, Count: 300},
		{Kind: KindPing, Dst: 2, Rounds: 256, Length: 32},
		{Kind: KindTraceroute, Dst: 2, Rounds: 1, Length: 32, Retries: 255},
		{Kind: kindInvalid},
	} {
		if b, err := Encode(&c); err == nil {
			t.Errorf("%+v encoded as %x", c, b)
		}
	}
	// The traceroute retry budget travels as retries+1: -1 is the zero
	// byte, 254 the largest.
	for _, r := range []int{-1, 254} {
		c := Command{Kind: KindTraceroute, Dst: 2, Rounds: 1, Length: 32, Retries: r}
		if got, err := DecodeCommand(mustEncode(t, &c)); err != nil || got != c {
			t.Errorf("retries %d: got %+v, %v", r, got, err)
		}
	}
}

func TestDecodeCommandRejectsGarbage(t *testing.T) {
	if _, err := DecodeCommand(nil); err == nil {
		t.Fatal("empty command accepted")
	}
	if _, err := DecodeCommand([]byte{200}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeCommand([]byte{byte(KindPing), 1}); err == nil {
		t.Fatal("truncated ping command accepted")
	}
}

func TestRadioInfoRoundTrip(t *testing.T) {
	rep := decodeReply(t, &RadioInfo{Power: 31, Channel: 17})
	if rep.Kind != KindRadioInfo || rep.Radio.Power != 31 || rep.Radio.Channel != 17 {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestStatusRoundTrip(t *testing.T) {
	rep := decodeReply(t, &Status{Code: StatusBusy, Msg: "command in progress"})
	if rep.Kind != KindStatus || rep.Status.Code != StatusBusy || rep.Status.Msg != "command in progress" {
		t.Fatalf("reply = %+v", rep)
	}
}

func TestNbrEntryRoundTrip(t *testing.T) {
	e := NbrEntry{ID: 5, Name: "192.168.0.5", LQI: 107, RSSI: -12, PRRPercent: 97,
		DeliveryPercent: 83, Suspect: true, Blacklisted: true, WithLink: true}
	if rep := decodeReply(t, &e); rep.Nbr != e {
		t.Fatalf("got %+v, want %+v", rep.Nbr, e)
	}
	// Without link info the quality fields are not carried.
	rep2 := decodeReply(t, &NbrEntry{ID: 6, Name: "192.168.0.6", LQI: 100})
	if rep2.Nbr.WithLink || rep2.Nbr.LQI != 0 {
		t.Fatalf("no-link entry carried link data: %+v", rep2.Nbr)
	}
}

func TestPingResultRoundTrip(t *testing.T) {
	p := PingResult{
		Seq: 2, RTT: 4700, LQIFwd: 108, LQIBwd: 106, RSSIFwd: -1, RSSIBwd: 8,
		QFwd: 0, QBwd: 0, Power: 31, Channel: 17,
	}
	if got := decodeReply(t, &p).Ping; !reflect.DeepEqual(got, p) {
		t.Fatalf("got %+v", got)
	}
	if rep2 := decodeReply(t, &PingResult{Seq: 1, Lost: true}); !rep2.Ping.Lost {
		t.Fatal("lost flag dropped")
	}
}

func TestPingHopsRoundTrip(t *testing.T) {
	h := PingHops{Seq: 3, Back: true, Records: []HopLQ{{LQI: 105, RSSI: -3, Back: true}, {LQI: 101, RSSI: -9, Back: true}}}
	if got := decodeReply(t, &h).PingHops; !reflect.DeepEqual(got, h) {
		t.Fatalf("got %+v", got)
	}
	// Chunk bound enforced on encode: message stays within one packet.
	big := PingHops{Seq: 1, Records: make([]HopLQ, 40)}
	raw := mustEncode(t, &big)
	rep2, err := DecodeReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.PingHops.Records) != PingHopsChunk {
		t.Fatalf("chunk = %d, want %d", len(rep2.PingHops.Records), PingHopsChunk)
	}
	if len(raw) > 56 {
		t.Fatalf("chunk message %d bytes exceeds the transfer limit", len(raw))
	}
}

// TestNbrRowsChunk: a full neighbor table's rows travel seven to a
// message, each message within the payload ceiling, and decode with
// their link information.
func TestNbrRowsChunk(t *testing.T) {
	rows := make([]NbrEntry, 16)
	for i := range rows {
		rows[i] = NbrEntry{ID: phys.NodeID(i + 1), LQI: 255, RSSI: -128, PRRPercent: 100, DeliveryPercent: 100,
			Blacklisted: true, Suspect: true, WithLink: true}
	}
	raw := mustEncode(t, &NbrRows{Rows: rows})
	if max := stack.PayloadCeiling - xferHeaderLen; len(raw) > max {
		t.Fatalf("a full chunk is %d bytes, over the %d a transfer message carries", len(raw), max)
	}
	got := decodeReply(t, &NbrRows{Rows: rows}).NbrRows.Rows
	if !reflect.DeepEqual(got, rows[:NbrRowsChunk]) {
		t.Fatalf("got %+v, want the first %d rows", got, NbrRowsChunk)
	}
}

func TestTrHopReportRoundTrip(t *testing.T) {
	r := TrHopReport{Hop: 3, From: 4, RTT: 4900, LQIFwd: 106, LQIBwd: 107, RSSIFwd: 1, RSSIBwd: 2, QFwd: 0, QBwd: 0, Final: true}
	if rep := decodeReply(t, &r); rep.TrHop != r {
		t.Fatalf("got %+v, want %+v", rep.TrHop, r)
	}
	rep2 := decodeReply(t, &TrHopReport{Hop: 1, From: 2, Lost: true})
	if !rep2.TrHop.Lost || rep2.TrHop.Final {
		t.Fatalf("flags wrong: %+v", rep2.TrHop)
	}
}

func TestDecodeReplyRejectsGarbage(t *testing.T) {
	if _, err := DecodeReply(nil); err == nil {
		t.Fatal("empty reply accepted")
	}
	if _, err := DecodeReply([]byte{255}); err == nil {
		t.Fatal("unknown reply kind accepted")
	}
	if _, err := DecodeReply([]byte{byte(KindPingResult), 1}); err == nil {
		t.Fatal("truncated reply accepted")
	}
}

// scalars is a test message with one field of each primitive width.
type scalars struct {
	a uint8
	b uint16
	c uint32
	d int8
	s string
}

func (m *scalars) fields(c *codec) {
	c.u8(&m.a)
	c.u16(&m.b)
	c.u32(&m.c)
	c.i8(&m.d)
	c.str(&m.s)
}

func TestReaderWriterProperty(t *testing.T) {
	prop := func(a uint8, b uint16, c uint32, d int8, s string) bool {
		if len(s) > 200 {
			s = s[:200]
		}
		in := scalars{a, b, c, d, s}
		raw, err := Encode(&in)
		var out scalars
		return err == nil && len(raw) == 1+2+4+1+1+len(s) && decode(raw, &out) == nil && out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderShortInput(t *testing.T) {
	var out scalars
	if err := decode([]byte{1}, &out); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("short read: %v", err)
	}
	// Fields past the failure stay zero.
	if out != (scalars{a: 1}) {
		t.Fatalf("post-failure fields not zero: %+v", out)
	}
}

func TestWriterStringTruncation(t *testing.T) {
	in := scalars{s: strings.Repeat("x", 300)}
	var out scalars
	if err := decode(mustEncode(t, &in), &out); err != nil || len(out.s) != 255 {
		t.Fatalf("string truncated to %d (%v), want 255", len(out.s), err)
	}
}

func TestKindString(t *testing.T) {
	if KindPing.String() != "ping" || KindTrHopReport.String() != "tr-hop-report" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should format")
	}
	for k := KindRadioGet; k <= KindNbrRows; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = KindSetChannel.String() }); n != 0 {
		t.Fatalf("Kind.String allocates %.0f times per call", n)
	}
}

// wireGolden holds one representative wire image per message layout.
var wireGolden = []struct {
	name string
	msg  Message
	hex  string
}{
	{"cmd radio-get", &Command{Kind: KindRadioGet}, "01"},
	{"cmd set-power", &Command{Kind: KindSetPower, Value: 25}, "0219"},
	{"cmd set-channel", &Command{Kind: KindSetChannel, Value: 17}, "0311"},
	{"cmd nbr-list", &Command{Kind: KindNbrList, WithLink: true}, "0401"},
	{"cmd nbr-blacklist", &Command{Kind: KindNbrBlacklist, Target: 0x0203, On: true}, "05020301"},
	{"cmd nbr-update", &Command{Kind: KindNbrUpdate, PeriodMs: 1500}, "06000005dc"},
	{"cmd ping", &Command{Kind: KindPing, Dst: 9, Rounds: 3, Length: 32, RouterPort: 10}, "07000903200a"},
	{"cmd traceroute", &Command{Kind: KindTraceroute, Dst: 0x0103, Rounds: 1, Length: 32, RouterPort: 13, Retries: 2}, "08010301200d03"},
	{"cmd log-ctl", &Command{Kind: KindLogCtl, On: true}, "0901"},
	{"cmd log-dump", &Command{Kind: KindLogDump, Count: 40}, "0a28"},
	{"cmd stats-get", &Command{Kind: KindStatsGet}, "0b"},
	{"cmd energy-get", &Command{Kind: KindEnergyGet}, "0c"},
	{"cmd fs-list", &Command{Kind: KindFsList, Path: "/apps"}, "0d052f61707073"},
	{"radio-info", &RadioInfo{Power: 31, Channel: 17}, "0e1f11"},
	{"status", &Status{Code: StatusBusy, Msg: "command in progress"}, "0f0413636f6d6d616e6420696e2070726f6772657373"},
	{"nbr-entry with link", &NbrEntry{ID: 5, Name: "192.168.0.5", LQI: 107, RSSI: -12, PRRPercent: 97,
		DeliveryPercent: 83, Suspect: true, WithLink: true}, "1000050b3139322e3136382e302e35066bf46153"},
	{"nbr-entry without link", &NbrEntry{ID: 0x0106, Name: "node-262", Blacklisted: true, LQI: 99}, "100106086e6f64652d32363201"},
	{"ping-result", &PingResult{Seq: 2, RTT: 4700, LQIFwd: 108, LQIBwd: 106, RSSIFwd: -1, RSSIBwd: 8,
		QFwd: 1, QBwd: 2, Power: 31, Channel: 17}, "1102000000125c6c6aff0801021f11"},
	{"ping-hops", &PingHops{Seq: 3, Back: true, Records: []HopLQ{{LQI: 105, RSSI: -3, Back: true}, {LQI: 101, RSSI: -9, Back: true}}}, "1203010269fd65f7"},
	{"tr-hop-report", &TrHopReport{Hop: 3, From: 4, RTT: 70000, LQIFwd: 106, LQIBwd: 107, RSSIFwd: 1, RSSIBwd: -2,
		QFwd: 3, QBwd: 4, Final: true, Lost: true}, "1303000403000111706a6b01fe0304"},
	{"log-entry", &LogEntry{AtMs: 123456, Tag: "ping", Msg: "probe 1/1 to 2 sent"}, "140001e2400470696e671370726f626520312f3120746f20322073656e74"},
	{"node-stats", &NodeStats{UptimeMs: 1, MACSent: 2, MACReceived: 3, MACRetries: 4, MACNoAck: 5,
		MACCRCFail: 6, MACQueueDrop: 7, StackDeliver: 8, StackNoSub: 9, RAMUsed: 0x0a0b, RAMFree: 0x0c0d, QueueLen: 14},
		"150000000100000002000000030000000400000005000000060000000700000008000000090a0b0c0d0e"},
	{"router-stats with parent", &RouterStats{Port: 12, Name: "tree", Originated: 1, Forwarded: 2,
		Delivered: 3, NoRoute: 4, QueueDrops: 5, HasParent: true, Parent: 7, CostCentile: 250},
		"160c0474726565000000010000000200000003000000040000000501000700fa"},
	{"router-stats without parent", &RouterStats{Port: 10, Name: "geographic", Originated: 0x01020304,
		Parent: 9, CostCentile: 11}, "160a0a67656f67726170686963010203040000000000000000000000000000000000"},
	{"energy-stats with lifetime", &EnergyStats{TXuJ: 1, RXuJ: 2, OffuJ: 3, TXms: 4, RXms: 5, Offms: 6,
		RemainingPermille: 998, HasLifetime: true, EstimatedLifetimeHours: 77}, "1700000001000000020000000300000004000000050000000603e6010000004d"},
	{"energy-stats without lifetime", &EnergyStats{TXuJ: 9, RemainingPermille: 1000, EstimatedLifetimeHours: 5},
		"1700000009000000000000000000000000000000000000000003e800"},
	{"fs-entry", &FsEntry{Name: "ping", Size: 2148}, "180470696e670000086400"},
	{"fs-entry dir", &FsEntry{Name: "apps", Dir: true}, "1804617070730000000001"},
	{"cmd health-get", &Command{Kind: KindHealthGet}, "19"},
	{"health-radio with lifetime", &HealthRadio{Radio: RadioInfo{Power: 31, Channel: 17}, Energy: EnergyStats{TXuJ: 1, RXuJ: 2,
		OffuJ: 3, TXms: 4, RXms: 5, Offms: 6, RemainingPermille: 998, HasLifetime: true, EstimatedLifetimeHours: 77}},
		"1a1f1100000001000000020000000300000004000000050000000603e6010000004d"},
	{"health-radio without lifetime", &HealthRadio{Radio: RadioInfo{Power: 3, Channel: 26},
		Energy: EnergyStats{TXuJ: 9, RemainingPermille: 1000, EstimatedLifetimeHours: 5}},
		"1a031a00000009000000000000000000000000000000000000000003e800"},
	{"nbr-rows", &NbrRows{Rows: []NbrEntry{
		{ID: 5, Name: "not sent", LQI: 107, RSSI: -12, PRRPercent: 97, DeliveryPercent: 83, Suspect: true, WithLink: true},
		{ID: 0x0106, LQI: 99, RSSI: 3, PRRPercent: 100, DeliveryPercent: 100, Blacklisted: true}}},
		"1b0200056bf461530201066303646401"},
	{"ping probe", &pingProbe{taskID: 0x0102, seq: 4, origin: 3, routerPort: 10, length: 16}, "0101020400030aa5a5a5a5a5a5a5a5a5"},
	{"ping reply single-hop", &pingReply{taskID: 0x0102, seq: 4, queue: 2, lqi: 107, rssi: -5}, "0201020400026bfb"},
	{"ping reply multi-hop", &pingReply{taskID: 0x0102, seq: 4, multihop: true, queue: 3,
		fwd: []HopLQ{{LQI: 105, RSSI: -3}, {LQI: 99, RSSI: 7}}}, "0201020401030269fd6307"},
	{"traceroute probe", &trProbe{taskID: 0x0a0b, source: 1, dst: 9, port: 10, hop: 2, maxHops: 24, retries: 1, length: 20},
		"010a0b000100090a0218015a5a5a5a5a5a5a5a5a"},
	{"traceroute reply", &trReply{taskID: 0x0a0b, source: 1, hop: 2, lqi: 104, rssi: -7, queue: 1, final: true}, "020a0b00010268f90101"},
	{"traceroute report", &trReport{taskID: 0x0a0b, report: TrHopReport{Hop: 3, From: 4, RTT: 5100, LQIFwd: 106, LQIBwd: 107,
		RSSIFwd: 1, RSSIBwd: -2, QFwd: 0, QBwd: 1}}, "030a0b1303000400000013ec6a6b01fe0001"},
	{"reliable data", &xferData{id: 0x0304, seq: 1, total: 3, flags: envFlagAckReq,
		payload: []byte{byte(KindStatus), StatusOK, 2, 'o', 'k'}}, "00030400010003010f00026f6b"},
	{"reliable ack", &xferAck{id: 0x0304, next: 2}, "0103040002"},
}

// TestWireGolden pins the wire images. The round-trip tests cannot see a
// layout change that stays symmetric; these bytes can.
func TestWireGolden(t *testing.T) {
	for _, tc := range wireGolden {
		if got := hex.EncodeToString(mustEncode(t, tc.msg)); got != tc.hex {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.hex)
		}
	}
}
