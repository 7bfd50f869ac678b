package neighbor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

// BeaconPort is the well-known port the neighbor service subscribes to.
const BeaconPort byte = 2

// DefaultBeaconPeriod is the default interval between beacons. The
// LiteView "update" command changes it at runtime.
const DefaultBeaconPeriod = 2 * time.Second

// ExpiryFactor times the beacon period is how long a silent neighbor
// stays in the kernel table before the housekeeping tick drops it.
// Blacklisted entries are pinned (the user set them deliberately).
const ExpiryFactor = 8

// Beacon payload layout: seq (2 bytes, big endian) + name (rest). The
// name is advertised on air as the paper's beacons do; the table keeps
// IDs only, and whoever prints a neighbor names it.
func encodeBeacon(seq uint16, name string) []byte {
	buf := make([]byte, 2+len(name))
	binary.BigEndian.PutUint16(buf[:2], seq)
	copy(buf[2:], name)
	return buf
}

// decodeBeacon reads a beacon payload's sequence number.
func decodeBeacon(data []byte) (seq uint16, err error) {
	if len(data) < 2 {
		return 0, errors.New("neighbor: beacon too short")
	}
	return binary.BigEndian.Uint16(data[:2]), nil
}

// Service runs the neighborhood protocol for one node: it broadcasts
// periodic beacons advertising the node's name and folds overheard
// traffic and received beacons into the kernel table.
type Service struct {
	eng    *sim.Engine
	st     *stack.Stack
	table  *Table
	name   string
	rng    *sim.Rand
	ticker *sim.Ticker
	seq    uint16
}

// NewService wires the neighbor service onto st. It subscribes
// BeaconPort and installs a sniffer; call Start to begin beaconing.
func NewService(eng *sim.Engine, st *stack.Stack, table *Table, name string) (*Service, error) {
	s := &Service{
		eng:   eng,
		st:    st,
		table: table,
		name:  name,
		rng:   eng.Rand().Fork(fmt.Sprintf("beacon-%d", st.NodeID())),
	}
	ticker, err := sim.NewTicker(eng, DefaultBeaconPeriod, s.tick)
	if err != nil {
		return nil, err
	}
	s.ticker = ticker
	if err := st.Subscribe(BeaconPort, s.onBeacon); err != nil {
		return nil, err
	}
	st.AddSniffer(func(src phys.NodeID, ftype mac.FrameType, info medium.RxInfo) {
		if ftype == mac.TypeBeacon {
			return // beacons carry sequence numbers; handled in onBeacon
		}
		table.Observe(src, info.LQI, info.RSSI, info.At)
	})
	return s, nil
}

// Table returns the kernel table this service maintains.
func (s *Service) Table() *Table { return s.table }

// Period returns the current beacon interval.
func (s *Service) Period() sim.Time { return s.ticker.Period() }

// SetPeriod changes the beacon interval (the LiteView "update" command).
// It takes effect from the next beacon.
func (s *Service) SetPeriod(d sim.Time) error {
	if err := s.ticker.SetPeriod(d); err != nil {
		return errors.New("neighbor: beacon period must be positive")
	}
	return nil
}

// Running reports whether periodic beaconing is active.
func (s *Service) Running() bool { return s.ticker.Running() }

// Start begins periodic beaconing with a random initial phase so that
// co-started nodes do not beacon in lockstep.
func (s *Service) Start() {
	s.ticker.Start(s.rng.Jitter(s.ticker.Period()))
}

// Stop halts beaconing; the table keeps learning from overheard frames.
func (s *Service) Stop() { s.ticker.Stop() }

func (s *Service) tick() {
	// Housekeeping rides the beacon tick: age out neighbors not heard
	// for ExpiryFactor beacon periods.
	if cutoff := s.eng.Now() - ExpiryFactor*s.ticker.Period(); cutoff > 0 {
		s.table.Expire(cutoff)
	}
	s.seq++
	p := &stack.Packet{
		Port:   BeaconPort,
		Origin: s.st.NodeID(),
		Dst:    phys.Broadcast,
		TTL:    1,
		Data:   encodeBeacon(s.seq, s.name),
	}
	// Beacon loss to queue pressure is fine; the PRR estimator sees it
	// as a gap.
	_ = s.st.Send(p, phys.Broadcast, mac.TypeBeacon, nil)
}

func (s *Service) onBeacon(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	seq, err := decodeBeacon(p.Data)
	if err != nil {
		return
	}
	s.table.ObserveBeacon(from, seq, info.LQI, info.RSSI, info.At)
}
