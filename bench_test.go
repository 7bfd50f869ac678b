package liteview

// One benchmark per table and figure of the paper's evaluation section,
// plus the design-choice ablations from DESIGN.md and micro-benchmarks
// of the hot substrate paths. The figure/table benchmarks run the full
// simulated experiment per iteration — their ns/op is the cost of
// regenerating the result, while correctness of the regenerated shapes
// is asserted by the internal/bench test suite.

import (
	"testing"
	"time"

	"liteview/internal/bench"
	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/testbed"
)

// runExperiment drives one regenerated experiment per iteration with a
// rotating seed so the benchmark also doubles as a robustness sweep.
func runExperiment(b *testing.B, run func(seed uint64, opt bench.Options) (*bench.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(uint64(i)+1, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res == nil {
			b.Fatal("nil result")
		}
	}
}

// BenchmarkResponseDelayPing regenerates E1 (the 500 ms command window
// of neighborhood management and single-hop ping).
func BenchmarkResponseDelayPing(b *testing.B) { runExperiment(b, bench.ResponseDelays) }

// BenchmarkTracerouteDelay regenerates Figure 5 (per-hop traceroute
// response delay on the eight-hop line).
func BenchmarkTracerouteDelay(b *testing.B) { runExperiment(b, bench.Figure5) }

// BenchmarkPathRSSI regenerates Figure 6 (per-hop forward/backward RSSI
// at power levels 10 and 25).
func BenchmarkPathRSSI(b *testing.B) { runExperiment(b, bench.Figure6) }

// BenchmarkTracerouteOverhead regenerates Figure 7 (control packets vs
// hops, <50 at 8 hops).
func BenchmarkTracerouteOverhead(b *testing.B) { runExperiment(b, bench.Figure7) }

// BenchmarkFootprintAccounting regenerates T1 (binary footprints and
// zero-overhead-when-inactive).
func BenchmarkFootprintAccounting(b *testing.B) { runExperiment(b, bench.FootprintTable) }

// BenchmarkSingleHopPing regenerates T2 (the paper's sample ping
// transcript numbers).
func BenchmarkSingleHopPing(b *testing.B) { runExperiment(b, bench.PingSample) }

// BenchmarkPaddingCapacity regenerates T3 (the 24-hop padding bound of
// a 16-byte probe).
func BenchmarkPaddingCapacity(b *testing.B) { runExperiment(b, bench.PaddingCapacity) }

// BenchmarkPingVsTraceroute runs ablation D2 (padding-bounded multi-hop
// ping vs per-hop-report traceroute).
func BenchmarkPingVsTraceroute(b *testing.B) { runExperiment(b, bench.PingVsTraceroute) }

// BenchmarkAdaptiveBatch runs ablation D3 (adaptive vs fixed batch size
// in the reliable exchange protocol).
func BenchmarkAdaptiveBatch(b *testing.B) { runExperiment(b, bench.AdaptiveBatch) }

// BenchmarkNeighborSharing runs ablation D4 (kernel-shared vs
// per-protocol neighbor tables).
func BenchmarkNeighborSharing(b *testing.B) { runExperiment(b, bench.NeighborSharing) }

// BenchmarkProtocolComparison runs ablation D5 (the same ping command
// over geographic forwarding and the on-demand protocol).
func BenchmarkProtocolComparison(b *testing.B) { runExperiment(b, bench.ProtocolComparison) }

// BenchmarkEnergyTuning runs ablation D6 (transmit-power tuning vs the
// deployment's energy budget).
func BenchmarkEnergyTuning(b *testing.B) { runExperiment(b, bench.EnergyTuning) }

// BenchmarkDutyCycling runs ablation D7 (always-on vs low-power
// listening).
func BenchmarkDutyCycling(b *testing.B) { runExperiment(b, bench.DutyCycling) }

// --- Ablation D1 and substrate micro-benchmarks ---

// BenchmarkPortDispatch measures the port-map dispatch path of the
// communication stack (ablation D1: the price of protocol independence
// over a hardwired call).
func BenchmarkPortDispatch(b *testing.B) {
	eng := sim.NewEngine(1)
	model := phys.DefaultModel(1)
	med := medium.New(eng, model)
	rad, err := radio.New(17)
	if err != nil {
		b.Fatal(err)
	}
	var st *stack.Stack
	m, err := mac.New(eng, med, rad, 1, phys.Position{}, mac.DefaultConfig(),
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	if err != nil {
		b.Fatal(err)
	}
	st = stack.New(eng, m)
	sink := 0
	if err := st.Subscribe(10, func(p *stack.Packet, _ phys.NodeID, _ medium.RxInfo) { sink += len(p.Data) }); err != nil {
		b.Fatal(err)
	}
	pkt := &stack.Packet{Port: 10, Origin: 2, Dst: 1, TTL: 4, Data: make([]byte, 32)}
	raw, err := pkt.Encode()
	if err != nil {
		b.Fatal(err)
	}
	frame := mac.Frame{Type: mac.TypeData, Dst: 1, Src: 2, Payload: raw}
	info := medium.RxInfo{From: 2, LQI: 108, RSSI: -10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.OnFrame(frame, info)
	}
	_ = sink
}

// BenchmarkDirectDispatch is the baseline for D1: the same handler
// invoked without the port map (decode plus direct call).
func BenchmarkDirectDispatch(b *testing.B) {
	sink := 0
	handler := func(p *stack.Packet) { sink += len(p.Data) }
	pkt := &stack.Packet{Port: 10, Origin: 2, Dst: 1, TTL: 4, Data: make([]byte, 32)}
	raw, err := pkt.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := stack.DecodePacket(raw)
		if err != nil {
			b.Fatal(err)
		}
		handler(p)
	}
	_ = sink
}

// crcSink keeps BenchmarkCRC's result live: an unused result lets the
// compiler drop the inlined checksum loop and time an empty loop.
var crcSink uint16

// BenchmarkCRC measures the CRC-16/CCITT over a max-size frame.
func BenchmarkCRC(b *testing.B) {
	data := make([]byte, mac.MaxFrameLen)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		crcSink += mac.Checksum(data)
	}
}

// BenchmarkFrameRoundTrip measures MAC frame encode+decode.
func BenchmarkFrameRoundTrip(b *testing.B) {
	f := mac.Frame{Type: mac.TypeControl, Dst: 2, Src: 1, Payload: make([]byte, 64)}
	for i := 0; i < b.N; i++ {
		raw, err := f.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mac.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketRoundTrip measures stack packet encode+decode with a
// full padding region.
func BenchmarkPacketRoundTrip(b *testing.B) {
	p := &stack.Packet{Port: 10, Origin: 1, Dst: 9, TTL: 16, Flags: stack.FlagPad, Data: make([]byte, 16)}
	for i := 0; i < 24; i++ {
		if err := p.AppendPad(stack.LinkQuality{LQI: 100, RSSI: -20}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		raw, err := p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stack.DecodePacket(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvents measures the simulator's event throughput.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(1000, tick)
		}
	}
	eng.Schedule(1000, tick)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineSchedule isolates the kernel's scheduling hot loop —
// the self-rescheduling ticker pattern that dominates every simulation
// (MAC backoffs, LPL wakeups, app traffic, medium deliveries). The
// handle variant is the cancellable path: Schedule allocates a fresh
// Event per tick and returns a cancellation handle, here immediately
// discarded. The pooled variant is the fast path: After recycles fired
// events through the engine-local free list, so the steady state runs
// allocation-free.
func BenchmarkEngineSchedule(b *testing.B) {
	b.Run("handle", func(b *testing.B) {
		eng := sim.NewEngine(1)
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				eng.Schedule(1000, tick)
			}
		}
		eng.Schedule(1000, tick)
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run()
	})
	b.Run("pooled", func(b *testing.B) {
		eng := sim.NewEngine(1)
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				eng.After(1000, tick)
			}
		}
		eng.After(1000, tick)
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run()
	})
	// lpl-4096 is the pattern the wheel's O(1)-vs-O(log n) claim is
	// about: 4096 concurrent duty-cycle tickers (LPL wakeups, beacon
	// timers) with staggered phases, so the pending set stays ~4096
	// deep while every fire schedules near the tail. A binary heap
	// pays O(log 4096) = 12 sift levels per event here; a timer wheel
	// pays O(1).
	b.Run("lpl-4096", func(b *testing.B) {
		const tickers = 4096
		const period = 100 * 1000 * 1000 // 100 ms, the LPL sleep interval
		eng := sim.NewEngine(1)
		n := 0
		fns := make([]func(), tickers)
		for i := range fns {
			i := i
			fns[i] = func() {
				n++
				if n < b.N {
					eng.After(period, fns[i])
				}
			}
			eng.After(sim.Time(period*(i+1)/tickers), fns[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run()
	})
}

// BenchmarkFramePath measures the full one-hop TX→medium→RX→dispatch
// path between two real nodes 5 m apart: stack encode, MAC enqueue +
// CSMA, medium delivery, MAC decode + dedup, and stack port dispatch.
// The broadcast variant is ack-free; the unicast variant
// adds the auto-ack exchange (receiver ack TX, sender ack-wait); the
// corrupted variant broadcasts to one receiver whose MAC injects bit
// errors and one the SINR draw corrupts, so every reception fails its
// CRC check. This is the path the zero-alloc work pins at 0 allocs/op
// in steady state.
func BenchmarkFramePath(b *testing.B) {
	run := func(b *testing.B, dst phys.NodeID, corrupted bool) {
		p := buildFramePath(b, corrupted)
		// Warm the link caches and the pools before measuring.
		for i := 0; i < 8; i++ {
			p.send(b, dst)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.send(b, dst)
		}
		if corrupted != (p.got == 0) {
			b.Fatalf("delivered %d payload bytes with corrupted=%v", p.got, corrupted)
		}
	}
	b.Run("broadcast", func(b *testing.B) { run(b, phys.Broadcast, false) })
	b.Run("unicast-acked", func(b *testing.B) { run(b, 2, false) })
	b.Run("corrupted", func(b *testing.B) { run(b, phys.Broadcast, true) })
}

// BenchmarkPRR measures the SNR→packet-reception-rate computation.
func BenchmarkPRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		phys.PRR(float64(i%20)-5, 64)
	}
}

// BenchmarkLQI measures the SNR→LQI mapping.
func BenchmarkLQI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		radio.LQI(float64(i % 30))
	}
}

// silentNode is a no-op medium.Receiver: the benchmark measures the
// medium's fan-out, not receiver processing.
type silentNode struct {
	id  phys.NodeID
	pos phys.Position
	rad *radio.Radio
}

func (s *silentNode) NodeID() phys.NodeID               { return s.id }
func (s *silentNode) Position() phys.Position           { return s.pos }
func (s *silentNode) Radio() *radio.Radio               { return s.rad }
func (s *silentNode) OnFrame(_ []byte, _ medium.RxInfo) {}

// BenchmarkMediumDeliver measures one broadcast fan-out on a grid:
// transmit from the grid center, deliver to every candidate. The
// indexed variants run the default single-cell medium (candidate sets,
// dense power memo, shared frame) on a dense grid (15 m spacing); the
// sharded variants run the spatially partitioned medium (per-cell
// ledgers and tables, ring-bounded reach) at 400 and 10,000 nodes. The
// interfered variant puts four overlapping transmitters on the air at
// once, so every delivery runs the SINR interference scan. The lpl-30
// variant is the paper's 30-mote testbed (5×6 at 8 m) with every other
// listener's radio off, as an LPL duty cycle leaves most neighbors of a
// beacon train: the radio-off path.
func BenchmarkMediumDeliver(b *testing.B) {
	type layout struct {
		cols, rows   int
		spacing      float64
		sharded      bool
		transmitters int
		dozing       bool // every other listener's radio off
	}
	run := func(b *testing.B, l layout) {
		eng := sim.NewEngine(42)
		model := phys.DefaultModel(42)
		m := medium.New(eng, model)
		if l.sharded {
			m.SetSharding(medium.Sharding{})
		}
		// The grid center transmits; extra transmitters sit two and four
		// columns to its left and right, all within interference range.
		center := (l.rows/2)*l.cols + l.cols/2
		offsets := []int{0, 2, -2, 4}[:l.transmitters]
		txs := make([]medium.Receiver, len(offsets))
		for i := 0; i < l.cols*l.rows; i++ {
			rad, err := radio.New(17)
			if err != nil {
				b.Fatal(err)
			}
			n := &silentNode{id: phys.NodeID(i + 1), rad: rad,
				pos: phys.Position{X: float64(i%l.cols) * l.spacing, Y: float64(i/l.cols) * l.spacing}}
			listener := true
			for k, off := range offsets {
				if i == center+off {
					txs[k] = n
					listener = false
				}
			}
			if l.dozing && listener && i%2 == 1 {
				rad.SetState(radio.Off)
			}
			if err := m.Attach(n); err != nil {
				b.Fatal(err)
			}
		}
		frame := make([]byte, 64)
		burst := func() {
			for _, tx := range txs {
				if _, err := m.Transmit(tx, frame); err != nil {
					b.Fatal(err)
				}
			}
			eng.Run()
		}
		// Warm the caches (part of the design: gains are static).
		burst()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			burst()
		}
	}
	b.Run("indexed-400", func(b *testing.B) { run(b, layout{cols: 20, rows: 20, spacing: 15, transmitters: 1}) })
	b.Run("interfered-400", func(b *testing.B) { run(b, layout{cols: 20, rows: 20, spacing: 15, transmitters: 4}) })
	b.Run("sharded-400", func(b *testing.B) { run(b, layout{cols: 20, rows: 20, spacing: 15, sharded: true, transmitters: 1}) })
	b.Run("indexed-10k", func(b *testing.B) { run(b, layout{cols: 100, rows: 100, spacing: 15, transmitters: 1}) })
	b.Run("sharded-10k", func(b *testing.B) { run(b, layout{cols: 100, rows: 100, spacing: 15, sharded: true, transmitters: 1}) })
	b.Run("lpl-30", func(b *testing.B) { run(b, layout{cols: 5, rows: 6, spacing: 8, transmitters: 1, dozing: true}) })
}

// BenchmarkGridSetup measures what a grid-400 session costs before its
// first command: the scale experiment's 20×20 grid at 14 m with no
// shadowing, geographic forwarding, LiteView installed, and a 10 s
// warm-up. Building the candidate sets and fanning out the warm-up's
// beacons are most of it.
func BenchmarkGridSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := testbed.DefaultOptions(1)
		opt.ShadowSigma, opt.AsymSigma = 0, 0
		tb, err := testbed.Grid(20, 20, 14, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.InstallLiteView(); err != nil {
			b.Fatal(err)
		}
		tb.WarmUp(10 * time.Second)
	}
}
