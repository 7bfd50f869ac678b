package core

import (
	"fmt"
	"testing"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

// TestReliableProtocolUnderParametricLoss is the exchange protocol's
// core guarantee made into a property: for any injected loss rate the
// link can survive at all, every completed transfer delivers every
// message exactly once, in order — and transfers either complete or
// fail loudly, never silently truncate.
func TestReliableProtocolUnderParametricLoss(t *testing.T) {
	for _, lossPct := range []int{0, 10, 25, 40, 60} {
		for seed := uint64(1); seed <= 4; seed++ {
			lossPct, seed := lossPct, seed
			t.Run(fmt.Sprintf("loss=%d%%/seed=%d", lossPct, seed), func(t *testing.T) {
				eng := sim.NewEngine(seed)
				model := phys.DefaultModel(seed)
				model.ShadowSigma = 0
				model.AsymSigma = 0
				med := medium.New(eng, model)
				lossRng := sim.NewRand(seed * 7777)
				med.SetFaultHook(func(phys.NodeID, phys.NodeID, int) medium.FaultEffect {
					return medium.FaultEffect{Corrupt: lossRng.Bool(float64(lossPct) / 100)}
				})
				var got [][]byte
				mkEp := func(id phys.NodeID, x float64, capture bool) *Endpoint {
					rad, err := radio.New(17)
					if err != nil {
						t.Fatal(err)
					}
					macCfg := mac.DefaultConfig()
					macCfg.LinkAcks = false // the exchange protocol alone
					var st *stack.Stack
					m, err := mac.New(eng, med, rad, id, phys.Position{X: x}, macCfg,
						func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
					if err != nil {
						t.Fatal(err)
					}
					st = stack.New(eng, m)
					cfg := DefaultReliableConfig()
					cfg.MaxRetries = 30
					ep, err := NewEndpoint(eng, st, cfg, func(_ phys.NodeID, p []byte, _ medium.RxInfo, _ bool) {
						if capture {
							got = append(got, p)
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					return ep
				}
				sender := mkEp(1, 0, false)
				mkEp(2, 5, true)
				const n = 25
				msgs := make([][]byte, n)
				for i := range msgs {
					msgs[i] = []byte{byte(i), byte(i >> 8)}
				}
				var done bool
				var failErr error
				if err := sender.Send(2, msgs, 0, func(err error) { done = true; failErr = err }); err != nil {
					t.Fatal(err)
				}
				eng.Run()
				if !done {
					t.Fatal("transfer neither completed nor failed")
				}
				if failErr != nil {
					// A loud failure is acceptable at high loss; but the
					// receiver must then have a strict prefix, never a gap.
					for i, m := range got {
						if m[0] != byte(i) {
							t.Fatalf("failed transfer left a gap at %d", i)
						}
					}
					if lossPct < 25 {
						t.Fatalf("transfer failed at only %d%% loss: %v", lossPct, failErr)
					}
					return
				}
				if len(got) != n {
					t.Fatalf("delivered %d/%d messages", len(got), n)
				}
				for i, m := range got {
					if m[0] != byte(i) {
						t.Fatalf("out of order at %d: % x", i, m)
					}
				}
			})
		}
	}
}

// TestInjectedLossForcesAdaptation checks the batch actually shrinks
// under loss (the observable behind the paper's "smaller batch size is
// preferred when packets are more likely to get lost").
func TestInjectedLossForcesAdaptation(t *testing.T) {
	run := func(lossPct int) uint64 {
		eng := sim.NewEngine(5)
		model := phys.DefaultModel(5)
		model.ShadowSigma = 0
		model.AsymSigma = 0
		med := medium.New(eng, model)
		lossRng := sim.NewRand(999)
		med.SetFaultHook(func(phys.NodeID, phys.NodeID, int) medium.FaultEffect {
			return medium.FaultEffect{Corrupt: lossRng.Bool(float64(lossPct) / 100)}
		})
		mkEp := func(id phys.NodeID, x float64) *Endpoint {
			rad, _ := radio.New(17)
			macCfg := mac.DefaultConfig()
			macCfg.LinkAcks = false
			var st *stack.Stack
			m, err := mac.New(eng, med, rad, id, phys.Position{X: x}, macCfg,
				func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
			if err != nil {
				t.Fatal(err)
			}
			st = stack.New(eng, m)
			cfg := DefaultReliableConfig()
			cfg.MaxRetries = 30
			ep, err := NewEndpoint(eng, st, cfg, func(phys.NodeID, []byte, medium.RxInfo, bool) {})
			if err != nil {
				t.Fatal(err)
			}
			return ep
		}
		sender := mkEp(1, 0)
		mkEp(2, 5)
		msgs := make([][]byte, 30)
		for i := range msgs {
			msgs[i] = []byte{byte(i)}
		}
		sender.Send(2, msgs, 0, nil)
		eng.Run()
		return sender.Stats().Retransmissions
	}
	clean := run(0)
	lossy := run(35)
	if clean != 0 {
		t.Fatalf("clean link retransmitted %d times", clean)
	}
	if lossy == 0 {
		t.Fatal("lossy link triggered no retransmission rounds")
	}
}
