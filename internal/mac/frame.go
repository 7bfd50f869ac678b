package mac

import (
	"encoding/binary"
	"errors"
	"fmt"

	"liteview/internal/phys"
)

// FrameType distinguishes the kinds of traffic the stack carries. The
// MAC does not interpret it beyond carrying it; it exists so traces and
// overhead accounting (Figure 7 counts "control messages") can classify
// frames.
type FrameType byte

const (
	// TypeData is ordinary stack traffic (application or routing data).
	TypeData FrameType = iota
	// TypeBeacon is a neighborhood discovery beacon.
	TypeBeacon
	// TypeControl is LiteView management traffic (commands, probes,
	// replies, acks).
	TypeControl
	// TypeAck is a MAC-level acknowledgement (802.15.4 auto-ack); it
	// never reaches the stack.
	TypeAck
)

func (t FrameType) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeBeacon:
		return "beacon"
	case TypeControl:
		return "control"
	case TypeAck:
		return "ack"
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// Frame layout on the air:
//
//	offset size field
//	0      1    frame type
//	1      1    sequence number
//	2      2    destination short address (big endian)
//	4      2    source short address (big endian)
//	6      n    payload
//	6+n    2    CRC-16/CCITT over bytes [0, 6+n)
const (
	headerLen = 6
	fcsLen    = 2
	// MaxFrameLen is the 802.15.4 PHY's 127-byte MPDU limit.
	MaxFrameLen = 127
	// MaxPayload is the room left for the stack's packet.
	MaxPayload = MaxFrameLen - headerLen - fcsLen
)

// Frame is a decoded MAC frame.
type Frame struct {
	Type    FrameType
	Seq     byte
	Dst     phys.NodeID
	Src     phys.NodeID
	Payload []byte
}

// Errors returned by Decode.
var (
	ErrFrameTooShort = errors.New("mac: frame too short")
	ErrFrameTooLong  = errors.New("mac: frame exceeds 127-byte MPDU")
	ErrBadCRC        = errors.New("mac: CRC check failed")
)

// Encode serialises the frame, appending the FCS.
func (f *Frame) Encode() ([]byte, error) {
	return f.AppendEncode(nil)
}

// AppendEncode serialises the frame into dst's spare capacity and
// returns the extended slice; the wire image is the appended region.
// Encoding into a retained buffer's [:0] reslice makes steady-state
// transmission allocation-free once the buffer has grown to frame size.
func (f *Frame) AppendEncode(dst []byte) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: payload %d > %d", ErrFrameTooLong, len(f.Payload), MaxPayload)
	}
	start := len(dst)
	dst = append(dst, make([]byte, headerLen+len(f.Payload)+fcsLen)...)
	buf := dst[start:]
	buf[0] = byte(f.Type)
	buf[1] = f.Seq
	binary.BigEndian.PutUint16(buf[2:4], uint16(f.Dst))
	binary.BigEndian.PutUint16(buf[4:6], uint16(f.Src))
	copy(buf[headerLen:], f.Payload)
	crc := Checksum(buf[:headerLen+len(f.Payload)])
	binary.BigEndian.PutUint16(buf[headerLen+len(f.Payload):], crc)
	return dst, nil
}

// Decode parses raw bytes, verifying length bounds and the FCS. The
// returned frame's payload aliases raw.
func Decode(raw []byte) (Frame, error) {
	if err := check(raw); err != nil {
		return Frame{}, err
	}
	return parse(raw), nil
}

// check verifies raw's length bounds and FCS.
func check(raw []byte) error {
	if len(raw) < headerLen+fcsLen {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooShort, len(raw))
	}
	if len(raw) > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(raw))
	}
	body := raw[:len(raw)-fcsLen]
	if Checksum(body) != binary.BigEndian.Uint16(raw[len(raw)-fcsLen:]) {
		return ErrBadCRC
	}
	return nil
}

// intact is the frame check the MAC installs on the medium: it reports
// whether raw would decode, so the medium can verify each transmission
// once for all its receivers.
func intact(raw []byte) bool { return check(raw) == nil }

// parse reads the header of a frame that has passed check; the payload
// aliases raw.
func parse(raw []byte) Frame {
	return Frame{
		Type:    FrameType(raw[0]),
		Seq:     raw[1],
		Dst:     frameDst(raw),
		Src:     frameSrc(raw),
		Payload: raw[headerLen : len(raw)-fcsLen],
	}
}

// frameDst and frameSrc read the addresses of a frame that has passed
// check.
func frameDst(raw []byte) phys.NodeID { return phys.NodeID(binary.BigEndian.Uint16(raw[2:4])) }
func frameSrc(raw []byte) phys.NodeID { return phys.NodeID(binary.BigEndian.Uint16(raw[4:6])) }
