package mac

import (
	"testing"
	"testing/quick"
)

func TestChecksumKnownValues(t *testing.T) {
	// CRC-16/CCITT with init 0x0000 ("XModem") of "123456789" is 0x31C3.
	if got := Checksum([]byte("123456789")); got != 0x31C3 {
		t.Fatalf("Checksum = %#04x, want 0x31C3", got)
	}
	if Checksum(nil) != 0 {
		t.Fatal("Checksum of empty input should be 0")
	}
}

func TestChecksumDetectsSingleBitErrors(t *testing.T) {
	f := func(data []byte, pos uint16, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		orig := Checksum(data)
		mut := append([]byte(nil), data...)
		mut[int(pos)%len(mut)] ^= 1 << (bit % 8)
		return Checksum(mut) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDeterministic(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if Checksum(data) != Checksum(data) {
		t.Fatal("checksum not deterministic")
	}
}

// refChecksum is a table-free, bit-at-a-time CRC-16/CCITT: the
// reference the slicing-by-8 kernel is checked against.
func refChecksum(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// FuzzChecksum compares the slicing kernel with the bitwise reference
// on every length 0–127 (the 802.15.4 MPDU range), so each tail length
// after the 8-byte steps is covered.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte("123456789"))
	f.Add(make([]byte, MaxFrameLen))
	f.Add([]byte{0xFF, 0x00, 0x80, 0x01, 0x7F, 0xFE, 0x10, 0x21, 0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxFrameLen {
			data = data[:MaxFrameLen]
		}
		for n := 0; n <= len(data); n++ {
			if got, want := Checksum(data[:n]), refChecksum(data[:n]); got != want {
				t.Fatalf("len %d: Checksum = %#04x, reference %#04x", n, got, want)
			}
		}
	})
}
