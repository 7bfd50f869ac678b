package mac

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"liteview/internal/phys"
)

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Type: TypeControl, Seq: 7, Dst: 0x1234, Src: 0x5678, Payload: []byte("hello")}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Seq != f.Seq || got.Dst != f.Dst || got.Src != f.Src {
		t.Fatalf("header mismatch: %+v vs %+v", got, f)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(ty byte, seq byte, dst, src uint16, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		f := Frame{Type: FrameType(ty % 3), Seq: seq, Dst: phys.NodeID(dst), Src: phys.NodeID(src), Payload: payload}
		raw, err := f.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		return got.Type == f.Type && got.Seq == f.Seq && got.Dst == f.Dst &&
			got.Src == f.Src && bytes.Equal(got.Payload, f.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	f := Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Encode(); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", err)
	}
	f.Payload = make([]byte, MaxPayload)
	if _, err := f.Encode(); err != nil {
		t.Fatalf("max payload rejected: %v", err)
	}
}

func TestDecodeRejectsShortAndLong(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err = %v, want ErrFrameTooShort", err)
	}
	if _, err := Decode(make([]byte, MaxFrameLen+1)); !errors.Is(err, ErrFrameTooLong) {
		t.Fatalf("err = %v, want ErrFrameTooLong", err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	f := Frame{Type: TypeData, Dst: 1, Src: 2, Payload: []byte("payload")}
	raw, _ := f.Encode()
	prop := func(pos uint16, bit uint8) bool {
		mut := append([]byte(nil), raw...)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		_, err := Decode(mut)
		return errors.Is(err, ErrBadCRC)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedFrameFailsFCS is the guarantee behind OnFrame counting a
// corrupted reception as a CRC failure without checking it: at every
// frame length the MAC can emit, flipping any single bit of the wire
// image makes Decode fail the FCS check. The frame carries no length
// field, so no flip can turn a corruption into a length error either.
func TestCorruptedFrameFailsFCS(t *testing.T) {
	payload := make([]byte, MaxPayload)
	for i := range payload {
		payload[i] = byte(i*151 + 7)
	}
	mut := make([]byte, 0, MaxFrameLen)
	for n := 0; n <= MaxPayload; n++ {
		f := Frame{Type: TypeData, Seq: byte(n), Dst: 0x1234, Src: 0x5678, Payload: payload[:n]}
		raw, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(raw); bit++ {
			mut = append(mut[:0], raw...)
			mut[bit/8] ^= 1 << (bit % 8)
			if _, err := Decode(mut); !errors.Is(err, ErrBadCRC) {
				t.Fatalf("%d-byte frame with bit %d flipped: err = %v, want ErrBadCRC", len(raw), bit, err)
			}
		}
	}
}

func TestFrameTypeString(t *testing.T) {
	if TypeData.String() != "data" || TypeBeacon.String() != "beacon" || TypeControl.String() != "control" {
		t.Fatal("frame type strings wrong")
	}
	if FrameType(99).String() == "" {
		t.Fatal("unknown type should format")
	}
}

func TestMaxPayloadFitsMPDU(t *testing.T) {
	f := Frame{Payload: make([]byte, MaxPayload)}
	raw, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != MaxFrameLen {
		t.Fatalf("encoded max frame is %d bytes, want %d", len(raw), MaxFrameLen)
	}
}
