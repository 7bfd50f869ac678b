// Package radio models the Chipcon CC2420, the 802.15.4 transceiver on
// the MicaZ motes the paper targets. It captures exactly the register
// semantics LiteView surfaces to users:
//
//   - programmable output power, PA_LEVEL 3..31 mapping to −25..0 dBm
//     (the paper's Figure 6 uses levels 10 and 25);
//   - 16 channels, numbered 11..26 per 802.15.4 (the sample ping output
//     shows "Channel = 17");
//   - RSSI: a register value with a linear relation to received power,
//     RSSI = P(dBm) − RSSI_OFFSET with RSSI_OFFSET = −45 dBm, so a
//     register reading of −20 means ≈ −65 dBm, matching the paper's
//     example;
//   - LQI: a correlation-derived link quality in 50..110 computed over
//     the first 8 symbols after the SFD, where ≈110 is the best quality
//     and 50 the worst.
package radio

import (
	"fmt"

	"liteview/internal/sim"
)

// State is the transceiver state.
type State int

const (
	// Off means the oscillator is down; nothing is heard or sent.
	Off State = iota
	// RX means the radio is listening.
	RX
	// TX means the radio is transmitting.
	TX
)

func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case RX:
		return "rx"
	case TX:
		return "tx"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Hardware timing constants of the CC2420 / 802.15.4 2.4 GHz PHY.
const (
	// ByteTime is the airtime of one byte at 250 kbps.
	ByteTime = sim.Time(32_000) // 32 µs
	// SymbolTime is one O-QPSK symbol period (16 µs).
	SymbolTime = sim.Time(16_000)
	// TurnaroundTime is the RX/TX turnaround (12 symbols, 192 µs).
	TurnaroundTime = 12 * SymbolTime
	// PHYOverheadBytes is preamble (4) + SFD (1) + length field (1).
	PHYOverheadBytes = 6
)

// Power level limits (CC2420 PA_LEVEL register).
const (
	MinPowerLevel = 3
	MaxPowerLevel = 31
)

// Channel limits (802.15.4 2.4 GHz band).
const (
	MinChannel = 11
	MaxChannel = 26
)

// RSSIOffset is the CC2420 RSSI register offset in dBm: the register
// reads P(dBm) − RSSIOffset.
const RSSIOffset = -45.0

// CCAThresholdDBm is the default clear-channel-assessment threshold.
const CCAThresholdDBm = -77.0

// SensitivityDBm is the weakest signal the receiver can detect at all
// (synchronize on the preamble). The nominal −94 dBm "sensitivity" of
// the datasheet is the ~1% PER point, which the SNR→PER curve already
// produces; the hard detection floor sits a few dB below it.
const SensitivityDBm = -100.0

// paTable holds the documented PA_LEVEL→dBm calibration points from the
// CC2420 datasheet. Intermediate levels are linearly interpolated.
var paTable = []struct {
	level int
	dBm   float64
}{
	{3, -25}, {7, -15}, {11, -10}, {15, -7},
	{19, -5}, {23, -3}, {27, -1}, {31, 0},
}

// txCurrentTable holds the CC2420 datasheet's transmit current draw in
// mA at the documented PA_LEVEL calibration points.
var txCurrentTable = []struct {
	level int
	mA    float64
}{
	{3, 8.5}, {7, 9.9}, {11, 11.2}, {15, 12.5},
	{19, 13.9}, {23, 15.2}, {27, 16.5}, {31, 17.4},
}

// TXCurrentMA returns the transmit current in mA at a PA_LEVEL,
// interpolating between the datasheet calibration points.
func TXCurrentMA(level int) float64 {
	if level <= txCurrentTable[0].level {
		return txCurrentTable[0].mA
	}
	if level >= txCurrentTable[len(txCurrentTable)-1].level {
		return txCurrentTable[len(txCurrentTable)-1].mA
	}
	for i := 1; i < len(txCurrentTable); i++ {
		if level <= txCurrentTable[i].level {
			lo, hi := txCurrentTable[i-1], txCurrentTable[i]
			frac := float64(level-lo.level) / float64(hi.level-lo.level)
			return lo.mA + frac*(hi.mA-lo.mA)
		}
	}
	return txCurrentTable[len(txCurrentTable)-1].mA
}

// RXCurrentMA is the CC2420 receive/listen current (the radio draws it
// whenever it listens, whether or not a frame is arriving — idle
// listening is the dominant energy cost of an always-on mote).
const RXCurrentMA = 18.8

// OffCurrentMA is the radio's power-down current.
const OffCurrentMA = 0.001

// SupplyVolts is the mote's nominal battery voltage.
const SupplyVolts = 3.0

// PowerDBm converts a PA_LEVEL register value to transmit power in dBm.
// Levels outside [MinPowerLevel, MaxPowerLevel] are clamped.
func PowerDBm(level int) float64 {
	if level <= paTable[0].level {
		return paTable[0].dBm
	}
	if level >= paTable[len(paTable)-1].level {
		return paTable[len(paTable)-1].dBm
	}
	for i := 1; i < len(paTable); i++ {
		if level <= paTable[i].level {
			lo, hi := paTable[i-1], paTable[i]
			frac := float64(level-lo.level) / float64(hi.level-lo.level)
			return lo.dBm + frac*(hi.dBm-lo.dBm)
		}
	}
	return 0
}

// RSSIRegister converts a received power in dBm to the CC2420 RSSI
// register value (clamped to the register's signed-byte range).
func RSSIRegister(rxDBm float64) int {
	v := int(rxDBm - RSSIOffset)
	if v < -128 {
		v = -128
	}
	if v > 127 {
		v = 127
	}
	return v
}

// LQI maps an SNR in dB to the CC2420 correlation value in [50, 110].
// The mapping saturates: beyond ~12 dB SNR every packet correlates
// perfectly (≈110) — on real CC2420s the correlation tops out once the
// chip decodes cleanly, which happens a few dB above the PRR cliff —
// and below 0 dB the chip reports the floor.
func LQI(snrDB float64) int {
	const floor, ceil, satSNR = 50.0, 110.0, 12.0
	if snrDB <= 0 {
		return int(floor)
	}
	if snrDB >= satSNR {
		return int(ceil)
	}
	return int(floor + (ceil-floor)*snrDB/satSNR)
}

// FrameAirtime returns the on-air duration of a MAC frame of the given
// length in bytes (PHY preamble/SFD/length overhead included).
func FrameAirtime(macFrameBytes int) sim.Time {
	return sim.Time(PHYOverheadBytes+macFrameBytes) * ByteTime
}

// Radio is the per-node transceiver configuration and state. LiteView's
// radio-configuration commands read and write exactly these knobs.
type Radio struct {
	state      State
	powerLevel int
	channel    int
	notify     func(old, new State)
}

// SetNotify installs a state-transition observer (the energy meter).
// Only one observer is supported; installing nil removes it.
func (r *Radio) SetNotify(fn func(old, new State)) { r.notify = fn }

// New returns a radio in RX at full power on the given channel.
func New(channel int) (*Radio, error) {
	r := &Radio{state: RX, powerLevel: MaxPowerLevel}
	if err := r.SetChannel(channel); err != nil {
		return nil, err
	}
	return r, nil
}

// State returns the transceiver state.
func (r *Radio) State() State { return r.state }

// SetState moves the transceiver to state s.
func (r *Radio) SetState(s State) {
	if s == r.state {
		return
	}
	old := r.state
	r.state = s
	if r.notify != nil {
		r.notify(old, s)
	}
}

// PowerLevel returns the PA_LEVEL register value.
func (r *Radio) PowerLevel() int { return r.powerLevel }

// SetPowerLevel programs the PA_LEVEL register. Values outside the
// CC2420's 3..31 range are rejected, mirroring the hardware.
func (r *Radio) SetPowerLevel(level int) error {
	if level < MinPowerLevel || level > MaxPowerLevel {
		return fmt.Errorf("radio: power level %d out of range [%d,%d]", level, MinPowerLevel, MaxPowerLevel)
	}
	r.powerLevel = level
	return nil
}

// Channel returns the current 802.15.4 channel number.
func (r *Radio) Channel() int { return r.channel }

// SetChannel tunes to an 802.15.4 channel (11..26).
func (r *Radio) SetChannel(ch int) error {
	if ch < MinChannel || ch > MaxChannel {
		return fmt.Errorf("radio: channel %d out of range [%d,%d]", ch, MinChannel, MaxChannel)
	}
	r.channel = ch
	return nil
}
