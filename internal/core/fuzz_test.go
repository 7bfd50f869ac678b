package core

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// Every decoder below reads bytes off the radio, so hostile input must
// never panic it, and whatever it accepts must survive decode → encode →
// decode unchanged: a message the codec reads is one it can write.

// checkCommand round-trips the command decoder.
func checkCommand(t *testing.T, raw []byte) {
	cmd, err := DecodeCommand(raw)
	if err != nil {
		return
	}
	// The wire form need not match byte-for-byte (trailing garbage is
	// tolerated), but a re-decode of the re-encode must agree.
	re, err := Encode(&cmd)
	if err != nil {
		t.Fatalf("decoded command %+v does not re-encode: %v", cmd, err)
	}
	cmd2, err := DecodeCommand(re)
	if err != nil {
		t.Fatalf("re-encoded command rejected: %v", err)
	}
	if cmd2 != cmd {
		t.Fatalf("round-trip drift: %+v vs %+v", cmd2, cmd)
	}
}

// checkReply round-trips the reply decoder, for every reply kind.
func checkReply(t *testing.T, raw []byte) {
	rep, err := DecodeReply(raw)
	if err != nil {
		return
	}
	re, err := Encode(rep.body())
	if err != nil {
		t.Fatalf("decoded %v reply %+v does not re-encode: %v", rep.Kind, rep, err)
	}
	rep2, err := DecodeReply(re)
	if err != nil {
		t.Fatalf("re-encoded %v reply rejected: %v", rep.Kind, err)
	}
	// Encoding carries at most one chunk of hop records or neighbor rows.
	if len(rep.PingHops.Records) > PingHopsChunk {
		rep.PingHops.Records = rep.PingHops.Records[:PingHopsChunk]
	}
	if len(rep.NbrRows.Rows) > NbrRowsChunk {
		rep.NbrRows.Rows = rep.NbrRows.Rows[:NbrRowsChunk]
	}
	if !reflect.DeepEqual(rep2, rep) {
		t.Fatalf("round-trip drift: %+v vs %+v", rep2, rep)
	}
}

// nodeMessages make the messages the ping, traceroute and reliable
// exchange engines decode from radio bytes.
var nodeMessages = []func() Message{
	func() Message { return new(pingProbe) },
	func() Message { return new(pingReply) },
	func() Message { return new(trProbe) },
	func() Message { return new(trReply) },
	func() Message { return new(trReport) },
	func() Message { return new(xferData) },
	func() Message { return new(xferAck) },
}

// checkNodeMessages round-trips every node-side decoder.
func checkNodeMessages(t *testing.T, raw []byte) {
	for _, fresh := range nodeMessages {
		m := fresh()
		if decode(raw, m) != nil {
			continue
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded %T %+v does not re-encode: %v", m, m, err)
		}
		m2 := fresh()
		if err := decode(re, m2); err != nil {
			t.Fatalf("re-encoded %T rejected: %v", m, err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("%T round-trip drift: %+v vs %+v", m, m2, m)
		}
	}
}

// FuzzDecodeCommand hardens the management command parser: hostile
// bytes on the control port must never panic the controller.
func FuzzDecodeCommand(f *testing.F) {
	for _, c := range []Command{
		{Kind: KindPing, Dst: 9, Rounds: 1, Length: 32, RouterPort: 10},
		{Kind: KindNbrBlacklist, Target: 3, On: true},
	} {
		raw, err := Encode(&c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{200, 1, 2})
	f.Fuzz(checkCommand)
}

// FuzzDecodeReply hardens the interpreter against hostile reply bytes.
func FuzzDecodeReply(f *testing.F) {
	for _, m := range []Message{
		&Status{Code: StatusOK, Msg: "ok"},
		&PingResult{Seq: 1, RTT: 4700},
		&TrHopReport{Hop: 2, From: 3, Final: true},
		&NbrRows{Rows: []NbrEntry{{ID: 5, LQI: 100}}},
		&HealthRadio{Energy: EnergyStats{TXuJ: 1, RXuJ: 2, HasLifetime: true, EstimatedLifetimeHours: 3}},
	} {
		raw, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{255})
	f.Fuzz(checkReply)
}

// FuzzWire feeds the same bytes to every LiteView decoder: commands,
// replies, and the node-side ping, traceroute and exchange messages. Its
// seeds are the golden wire images, one per layout.
func FuzzWire(f *testing.F) {
	for _, g := range wireGolden {
		raw, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkCommand(t, raw)
		checkReply(t, raw)
		checkNodeMessages(t, raw)
	})
}
