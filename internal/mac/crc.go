package mac

// CRC-16/CCITT (the 802.15.4 frame check sequence polynomial, x^16 +
// x^12 + x^5 + 1). The tables are built once at init; the MAC appends
// the FCS on encode and verifies it on decode, exactly where the paper's
// stack puts its "CRC Checker" stage (Figure 2).

const crcPoly = 0x1021

// crcTables[k][b] is the CRC (init 0) of byte b followed by k zero
// bytes. crcTables[0] is the classic byte-wise table; the others let
// Checksum fold eight bytes per step (slicing-by-8): the CRC is linear,
// so the register after eight bytes is the XOR of each byte's
// contribution shifted through the zero bytes that follow it, with the
// incoming register XORed into the first two bytes.
var crcTables [8][256]uint16

func init() {
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		crcTables[0][i] = crc
	}
	for k := 1; k < len(crcTables); k++ {
		for i := 0; i < 256; i++ {
			prev := crcTables[k-1][i]
			crcTables[k][i] = prev<<8 ^ crcTables[0][byte(prev>>8)]
		}
	}
}

// Checksum returns the CRC-16/CCITT of data (init 0x0000).
func Checksum(data []byte) uint16 {
	var crc uint16
	t := &crcTables
	for len(data) >= 8 {
		crc = t[7][data[0]^byte(crc>>8)] ^ t[6][data[1]^byte(crc)] ^
			t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^
			t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]
		data = data[8:]
	}
	for _, b := range data {
		crc = crc<<8 ^ t[0][byte(crc>>8)^b]
	}
	return crc
}
