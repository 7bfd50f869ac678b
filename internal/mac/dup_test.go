package mac

import (
	"math/rand/v2"
	"testing"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/sim"
)

// dupModel is the duplicate table written out plainly: dupTableSize
// rows of (source, last sequence number), a new source overwriting the
// oldest-inserted row once all are in use.
type dupModel struct {
	src  []phys.NodeID
	seq  []byte
	next int
}

// take records (src, seq) and reports whether the frame is new.
func (d *dupModel) take(src phys.NodeID, seq byte) bool {
	for i, s := range d.src {
		if s == src {
			fresh := d.seq[i] != seq
			d.seq[i] = seq
			return fresh
		}
	}
	if len(d.src) < dupTableSize {
		d.src, d.seq = append(d.src, src), append(d.seq, seq)
		return true
	}
	d.src[d.next], d.seq[d.next] = src, seq
	d.next = (d.next + 1) % dupTableSize
	return true
}

// A dup stream is a sequence of 3-byte ops. Op byte 0xFF resets and
// reboots the MAC; any other first byte is a received frame:
//
//	bits 0-1  frame type (3 is a MAC ack)
//	bits 2-3  destination: 1 broadcast, 2 another node, else this node
//	bit 4     corrupted on the air
//	bit 5     corrupted by the receive-path fault hook
//	bit 6     not verified by the medium (the MAC checks the FCS)
//
// The second byte picks one of 40 sources, more than the table holds,
// and the third a sequence number from 0-3, so duplicates are common.
const dupOpReset = 0xFF

// randomDupStream builds n ops. About half repeat the last frame, as an
// LPL sender's copies do (also across a reset), a quarter are the same
// source's next frame, and a few are corrupted.
func randomDupStream(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	var ops []byte
	last := []byte{0, 0, 0}
	for i := 0; i < n; i++ {
		var op []byte
		switch r := rng.IntN(40); {
		case r == 0:
			ops = append(ops, dupOpReset, 0, 0)
			continue
		case r < 20:
			op = []byte{last[0] &^ 0x70, last[1], last[2]}
		case r < 30:
			op = []byte{byte(rng.IntN(16)), last[1], byte(rng.IntN(4))}
		default:
			op = []byte{byte(rng.IntN(16)), byte(rng.IntN(40)), byte(rng.IntN(4))}
		}
		if rng.IntN(8) == 0 {
			op[0] |= byte(1+rng.IntN(7)) << 4
		}
		ops, last = append(ops, op...), op
	}
	return ops
}

// checkDupStream drives ops through the receive path of a MAC with
// config cfg and checks every frame's outcome against dupModel:
// delivered or not, re-acked or not, counted as an FCS failure or not,
// and under LPL whether it extended the awake period.
func checkDupStream(t *testing.T, cfg Config, ops []byte) {
	eng, _, b := buildLPLPair(t, 31, 5, DefaultConfig(), cfg)
	faulty := false
	b.mac.SetRxFault(func(phys.NodeID) bool { return faulty })
	var model dupModel
	want := b.mac.Stats()
	var linger sim.Time
	for i := 0; i+3 <= len(ops); i += 3 {
		op := ops[i]
		if op == dupOpReset {
			b.mac.Reset()
			b.mac.Boot()
			model, linger = dupModel{}, 0
			continue
		}
		f := Frame{Type: FrameType(op & 3), Seq: ops[i+2] % 4,
			Src: phys.NodeID(100 + int(ops[i+1])%40), Dst: 2, Payload: []byte{byte(i), byte(i >> 8)}}
		switch op >> 2 & 3 {
		case 1:
			f.Dst = phys.Broadcast
		case 2:
			f.Dst = 7
		}
		raw, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		info := medium.RxInfo{From: f.Src, Corrupted: op&0x10 != 0, Verified: op&0x40 == 0}
		faulty = op&0x20 != 0
		got := len(b.got)
		now := eng.Now()
		b.mac.OnFrame(raw, info)
		eng.Run()
		switch {
		case info.Corrupted || faulty:
			want.CRCFailures++
		case f.Type == TypeAck:
		case model.take(f.Src, f.Seq):
			want.Received++
			if len(b.got) != got+1 || b.got[got].Src != f.Src || b.got[got].Seq != f.Seq || b.got[got].Payload[0] != byte(i) {
				t.Fatalf("op %d: %+v was not delivered", i/3, f)
			}
			fallthrough
		default:
			if cfg.LPL {
				linger = now + Linger
			}
			if f.Dst == 2 {
				want.Sent++
				want.SentMACAcks++
			}
		}
		if len(b.got) != int(want.Received) {
			t.Fatalf("op %d: %+v delivered, a duplicate", i/3, f)
		}
		if st := b.mac.Stats(); st != want {
			t.Fatalf("op %d (%+v, corrupted %v, fault %v): stats %+v, want %+v",
				i/3, f, info.Corrupted, faulty, st, want)
		}
		if b.mac.lingerUntil != linger {
			t.Fatalf("op %d (%+v): awake until %v, want %v", i/3, f, b.mac.lingerUntil, linger)
		}
	}
}

// FuzzDupFastPath checks the duplicate filter's kept-row fast path
// against a plain model of the table, on streams of repeat copies from
// more sources than the table holds, with resets, MAC acks, corrupted
// copies and injected receive faults among them. It runs each stream on
// an always-on MAC and on a listening LPL one.
func FuzzDupFastPath(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(randomDupStream(seed, 1500))
	}
	listen := lplConfig()
	listen.Listening = true
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkDupStream(t, DefaultConfig(), ops)
		checkDupStream(t, listen, ops)
	})
}
