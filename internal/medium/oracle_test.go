package medium

import (
	"math"

	"liteview/internal/phys"
	"liteview/internal/radio"
)

// The full-scan oracle: the medium as it was before any cache, index or
// cell existed. Every delivery walks every attached node in attach
// order, recomputes each link budget from the model, applies the
// reachability floor inline, sums interference over every active
// transmission, and hands each receiver its own copy of the frame.
// Production runs must match it byte for byte wherever the deployment
// fits inside one detectability ring; the purity tests below compare
// the two.

// useOracle makes m deliver through the oracle instead of the cells and
// returns the CCA function matching the choice, so a scenario can run
// either way without touching its schedule.
func useOracle(m *Medium, oracle bool) func(Receiver) float64 {
	if !oracle {
		return m.EnergyDBmAt
	}
	m.deliverCb = m.oracleDeliver
	return m.oracleEnergyDBmAt
}

// oracleDeliver is the full-order fan-out, bound as m.deliverCb.
func (m *Medium) oracleDeliver(arg any) {
	t := arg.(*transmission)
	noiseMW := dbmToMW(m.model.NoiseFloor)
	for _, s := range m.order {
		if s == t.fromSlot {
			continue
		}
		rx, id := m.slots[s].rx, m.slots[s].id
		pos := rx.Position()
		b := m.model.LinkBudget(t.from, id, t.pos, pos)
		if b.Received(maxTxDBm) < radio.SensitivityDBm-FadeMarginDB {
			m.stats.BelowSensitivity++
			continue
		}
		if rx.Channel() != t.channel {
			m.stats.WrongChannel++
			m.report(t, id, OutcomeWrongChannel, "", 0, nil)
			continue
		}
		var eff FaultEffect
		if m.faultFn != nil {
			eff = m.faultFn(t.from, id, t.channel)
		}
		if eff.Drop {
			m.stats.InjectedDrops++
			m.report(t, id, OutcomeInjectedDrop, "", 0, nil)
			continue
		}
		rxDBm := b.Received(t.txDBm) - eff.ExtraLossDB
		if rxDBm < radio.SensitivityDBm {
			m.stats.BelowSensitivity++
			m.report(t, id, OutcomeBelowSensitivity, "", rxDBm, nil)
			continue
		}
		if rx.RadioState() != radio.RX {
			m.stats.MissedNotListening++
			m.report(t, id, OutcomeRadioOff, "", rxDBm, nil)
			continue
		}
		interfMW, interfered := 0.0, false
		for _, o := range m.active {
			if o == t || o.channel != t.channel || o.from == id {
				continue
			}
			if o.start >= t.end || o.end <= t.start {
				continue
			}
			interfMW += dbmToMW(m.model.LinkBudget(o.from, id, o.pos, pos).Received(o.txDBm))
			interfered = true
		}
		sinr := rxDBm - mwToDBm(noiseMW+interfMW)
		ok, cause := true, ""
		switch {
		case interfered && sinr < CaptureThresholdDB:
			ok, cause = false, "capture"
		case !m.rng.Bool(phys.PRR(sinr, len(t.frame))):
			ok, cause = false, "per"
		case eff.Corrupt:
			ok, cause = false, "jam"
		case m.lossFn != nil && m.lossFn(t.from, id, t.frame):
			ok, cause = false, "injected"
		}
		info := RxInfo{From: t.from, RxPowerDBm: rxDBm, RSSI: radio.RSSIRegister(rxDBm),
			LQI: radio.LQI(sinr), SNRDB: sinr, Corrupted: !ok, Verified: ok && t.verified,
			At: m.eng.Now()}
		if ok {
			m.stats.Delivered++
			m.report(t, id, OutcomeDelivered, "", rxDBm, &info)
		} else {
			m.stats.Corrupted++
			m.report(t, id, OutcomeCorrupted, cause, rxDBm, &info)
		}
		rx.OnFrame(append([]byte(nil), t.frame...), info)
	}
}

// oracleEnergyDBmAt is the full-scan CCA: every active transmission,
// budgets recomputed, the same detectability floor.
func (m *Medium) oracleEnergyDBmAt(r Receiver) float64 {
	m.prune()
	now := m.eng.Now()
	best := math.Inf(-1)
	for _, t := range m.active {
		if t.channel != r.Channel() || t.from == r.NodeID() || t.start > now || t.end <= now {
			continue
		}
		b := m.model.LinkBudget(t.from, r.NodeID(), t.pos, r.Position())
		if b.Received(maxTxDBm) < radio.SensitivityDBm-FadeMarginDB {
			continue
		}
		if p := b.Received(t.txDBm); p > best {
			best = p
		}
	}
	return best
}
