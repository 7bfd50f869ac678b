// Package stack implements the paper's port-based communication stack
// (Figure 2): a port map with subscription-based dispatch, header
// building and analysis, destination filtering, localhost delivery, and
// the link-quality padding mechanism that lets probes accumulate per-hop
// LQI/RSSI without corrupting data payloads.
//
// The stack is the isolation boundary that makes LiteView protocol
// independent: routing protocols and management commands are all just
// port subscribers, and the only data shared between layers is the
// packet itself.
package stack

import (
	"encoding/binary"
	"errors"
	"fmt"

	"liteview/internal/phys"
)

// PayloadCeiling is the routing layer's default payload upper bound (the
// paper's 64 bytes). When padding is enabled, bytes between the end of
// the actual data and this ceiling carry link-quality records.
const PayloadCeiling = 64

// PadBytesPerHop is the size of one link-quality record: one LQI byte
// and one RSSI register byte.
const PadBytesPerHop = 2

// Flag bits in the packet header.
const (
	// FlagPad enables link-quality padding at each forwarding hop.
	FlagPad byte = 1 << 0
	// FlagControl marks management traffic so every forwarding hop can
	// classify the frame for overhead accounting (Figure 7 counts
	// control messages).
	FlagControl byte = 1 << 1
)

// LinkQuality is one per-hop padding record.
type LinkQuality struct {
	// LQI is the CC2420 correlation value (50..110).
	LQI uint8
	// RSSI is the CC2420 RSSI register value.
	RSSI int8
}

// Packet header layout (carried inside the MAC payload):
//
//	offset size field
//	0      1    port
//	1      2    origin short address (big endian)
//	3      2    final destination short address (big endian)
//	5      1    TTL (remaining hops)
//	6      1    flags
//	7      1    data length
//	8      n    data
//	8+n    2k   k link-quality padding records (when FlagPad set)
const pktHeaderLen = 8

// Packet is a routing-layer packet.
type Packet struct {
	// Port selects the subscriber (protocol or command process) that
	// handles the packet.
	Port byte
	// Origin is the node that created the packet.
	Origin phys.NodeID
	// Dst is the final destination (phys.Broadcast floods).
	Dst phys.NodeID
	// TTL is the remaining hop budget.
	TTL byte
	// Flags carries FlagPad and future bits.
	Flags byte
	// Data is the application payload.
	Data []byte
	// Pad holds the accumulated per-hop link-quality records.
	Pad []LinkQuality
}

// Errors from packet encoding/decoding and padding.
var (
	ErrDataTooLong    = fmt.Errorf("stack: data exceeds payload ceiling of %d bytes", PayloadCeiling)
	ErrPacketTooSmall = errors.New("stack: packet shorter than header")
	ErrPadFull        = errors.New("stack: padding region exhausted")
	ErrBadLength      = errors.New("stack: length field inconsistent with packet size")
)

// PadCapacity returns how many more link-quality records fit in the
// padding region given the packet's data length.
func (p *Packet) PadCapacity() int {
	room := PayloadCeiling - len(p.Data) - PadBytesPerHop*len(p.Pad)
	if room < 0 {
		return 0
	}
	return room / PadBytesPerHop
}

// MaxPadHops returns the total number of hops a probe with the given
// data length can record (the paper's 16-byte probe yields 24).
func MaxPadHops(dataLen int) int {
	room := PayloadCeiling - dataLen
	if room < 0 {
		return 0
	}
	return room / PadBytesPerHop
}

// AppendPad adds one link-quality record; it fails with ErrPadFull once
// the padding region is exhausted, which is the scalability limit the
// paper describes for the multi-hop ping command.
func (p *Packet) AppendPad(lq LinkQuality) error {
	if p.Flags&FlagPad == 0 {
		return errors.New("stack: padding not enabled on packet")
	}
	if p.PadCapacity() == 0 {
		return ErrPadFull
	}
	p.Pad = append(p.Pad, lq)
	return nil
}

// Encode serialises the packet. Only bytes actually used are emitted
// ("only the actual data payload is transmitted over the air") — the
// ceiling is a capacity bound, not a wire size.
func (p *Packet) Encode() ([]byte, error) {
	if len(p.Data) > PayloadCeiling {
		return nil, ErrDataTooLong
	}
	if PadBytesPerHop*len(p.Pad) > PayloadCeiling-len(p.Data) {
		return nil, ErrPadFull
	}
	return p.AppendEncode(make([]byte, 0, pktHeaderLen+len(p.Data)+PadBytesPerHop*len(p.Pad)))
}

// AppendEncode serialises the packet into dst's spare capacity and
// returns the extended slice. Encoding into a retained buffer's [:0]
// reslice makes steady-state sends allocation-free.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	if len(p.Data) > PayloadCeiling {
		return dst, ErrDataTooLong
	}
	if PadBytesPerHop*len(p.Pad) > PayloadCeiling-len(p.Data) {
		return dst, ErrPadFull
	}
	start := len(dst)
	dst = append(dst, make([]byte, pktHeaderLen+len(p.Data)+PadBytesPerHop*len(p.Pad))...)
	buf := dst[start:]
	buf[0] = p.Port
	binary.BigEndian.PutUint16(buf[1:3], uint16(p.Origin))
	binary.BigEndian.PutUint16(buf[3:5], uint16(p.Dst))
	buf[5] = p.TTL
	buf[6] = p.Flags
	buf[7] = byte(len(p.Data))
	copy(buf[pktHeaderLen:], p.Data)
	off := pktHeaderLen + len(p.Data)
	for _, lq := range p.Pad {
		buf[off] = lq.LQI
		buf[off+1] = byte(lq.RSSI)
		off += 2
	}
	return dst, nil
}

// DecodePacket parses a serialised packet. The returned packet owns
// copies of its data and padding. The receive path decodes in place
// with DecodePacketInto; FuzzDecodePacket drives this copying form.
func DecodePacket(raw []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodePacketInto(p, raw); err != nil {
		return nil, err
	}
	p.Data = append([]byte(nil), p.Data...)
	return p, nil
}

// DecodePacketInto parses a serialised packet into p, reusing p's pad
// storage. p.Data ALIASES raw — the caller owns the lifetime question:
// the stack's dispatch path hands such packets to handlers as borrows
// (see Handler), and anything retained past the callback must be
// Cloned. On error p is left in an unspecified state.
func DecodePacketInto(p *Packet, raw []byte) error {
	if len(raw) < pktHeaderLen {
		return ErrPacketTooSmall
	}
	dataLen := int(raw[7])
	if pktHeaderLen+dataLen > len(raw) {
		return ErrBadLength
	}
	padBytes := len(raw) - pktHeaderLen - dataLen
	if padBytes%PadBytesPerHop != 0 {
		return ErrBadLength
	}
	p.Port = raw[0]
	p.Origin = phys.NodeID(binary.BigEndian.Uint16(raw[1:3]))
	p.Dst = phys.NodeID(binary.BigEndian.Uint16(raw[3:5]))
	p.TTL = raw[5]
	p.Flags = raw[6]
	p.Data = raw[pktHeaderLen : pktHeaderLen+dataLen]
	p.Pad = p.Pad[:0]
	off := pktHeaderLen + dataLen
	for off < len(raw) {
		p.Pad = append(p.Pad, LinkQuality{LQI: raw[off], RSSI: int8(raw[off+1])})
		off += 2
	}
	if dataLen+PadBytesPerHop*len(p.Pad) > PayloadCeiling {
		return ErrBadLength
	}
	return nil
}

// Clone returns a deep copy, used when a packet forks (e.g. localhost
// delivery plus forwarding).
func (p *Packet) Clone() *Packet {
	q := *p
	q.Data = append([]byte(nil), p.Data...)
	q.Pad = append([]LinkQuality(nil), p.Pad...)
	return &q
}
