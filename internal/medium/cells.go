package medium

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"liteview/internal/phys"
	"liteview/internal/radio"
)

// Spatial sharding: the medium partitioned into square grid cells.
//
// RF energy is local — phys.Model.DetectRange bounds the distance
// beyond which no link can clear the reachability floor even with the
// most favourable shadowing draw — so a transmission is physically
// incapable of touching nodes outside a bounded ring of cells around
// its origin. The sharded medium exploits that three ways:
//
//  1. Each cell owns the interference ledger and link-budget cache for
//     its member nodes, so a delivery's SINR scan walks only the
//     transmissions registered to the receiver's cell instead of the
//     whole deployment's active list.
//  2. A transmitter's reachability candidates are collected from the
//     cells within the detectability ring, not from a full node scan.
//  3. Because distinct cells own disjoint mutable state, the expensive
//     pure phase of a delivery fan-out — link budgets and interference
//     sums, grouped by receiver cell — runs concurrently on the
//     engine's worker lanes (sim.Engine.ForkJoin), while every
//     observable effect (randomness draws, stats, telemetry, OnFrame)
//     is committed sequentially in candidate-index order. Output is
//     therefore byte-identical at every worker count; DESIGN.md §14
//     spells out the contract.
//
// Interference accounting is the one modelled difference from the
// unsharded medium: signals from transmitters beyond the detectability
// ring — which EnergyDBmAt already treats as silence — are excluded
// from SINR sums too, instead of contributing sub-noise-floor watts.
// On deployments small enough that everything is within one ring the
// sharded medium is bit-identical to the indexed one (the purity
// regression checks exactly that).

// Sharding configures the spatially sharded medium.
type Sharding struct {
	// CellSize is the cell edge in meters. Zero derives it from the
	// propagation model: the detectability range at maximum transmit
	// power against the reachability floor, which makes the ring radius
	// exactly one cell. Any positive size is correct — the ring just
	// widens to cover the same physical radius.
	CellSize float64
	// Workers is the engine's concurrency budget for fan-out
	// assessment (sim.Engine.SetWorkers). Zero leaves the engine's
	// current budget untouched; 1 forces the sequential baseline.
	Workers int
}

// cellKey addresses one grid cell: floor(position / cellSize).
type cellKey struct{ cx, cy int }

// cell is one spatial shard: the nodes inside one grid square, the
// transmissions that can touch them, and the caches only they read.
type cell struct {
	key cellKey
	// members holds the slots of the resident nodes in attach order
	// (ties broken by the global attach sequence, so candidate sets keep
	// the exact iteration order the unsharded index uses).
	members []int32
	// ledger holds the active transmissions whose origin cell is
	// within the detectability ring — everything a member could
	// possibly hear or be interfered by, in transmit order.
	ledger []*transmission
	// gains caches the static budgets of directed links INTO members
	// of this cell, keyed from<<16|to. During a concurrent fan-out the
	// lane assessing this cell is the only goroutine touching it.
	gains map[uint32]phys.Budget
}

// shardState is the sharded medium's bookkeeping.
type shardState struct {
	cellSize float64
	// ring is the Chebyshev cell radius that covers DetectRange: cells
	// farther apart than ring are provably out of RF reach.
	ring  int
	cells map[cellKey]*cell
	// at is each slot's current cell (nil when detached), and seq its
	// place in global attach order (monotonic, zero when detached), so
	// merged candidate lists sort back into attach order. Both are
	// indexed by slot.
	at      []*cell
	seq     []uint64
	nextSeq uint64
}

// shardFanoutMin is the candidate count under which a sharded delivery
// skips the fork-join and assesses inline: the parallel and sequential
// paths are byte-identical by construction, so the threshold is purely
// a per-event overhead knob.
const shardFanoutMin = 24

func (m *Medium) keyFor(p phys.Position) cellKey {
	s := m.shard.cellSize
	return cellKey{int(math.Floor(p.X / s)), int(math.Floor(p.Y / s))}
}

// SetSharding partitions the medium into spatial cells (replacing any
// previous partition) and optionally sets the engine's worker budget.
// It requires the reachability index: sharding is the index taken
// spatial. Attached nodes are placed immediately; in-flight
// transmissions are re-registered into the new cells.
func (m *Medium) SetSharding(s Sharding) error {
	if !m.indexed {
		return fmt.Errorf("medium: sharding requires the reachability index")
	}
	size := s.CellSize
	rangeBound := m.model.DetectRange(maxTxDBm, radio.SensitivityDBm-FadeMarginDB)
	if size <= 0 {
		size = rangeBound
	}
	sh := &shardState{
		cellSize: size,
		ring:     int(math.Ceil(rangeBound / size)),
		cells:    make(map[cellKey]*cell),
	}
	m.shard = sh
	for _, s := range m.order {
		sh.place(s, m.keyFor(m.slots[s].rx.Position()))
	}
	// Re-register in-flight transmissions under the new partition.
	for _, t := range m.active {
		t.ocx, t.ocy = m.keyFor(t.pos).cx, m.keyFor(t.pos).cy
	}
	for key, c := range sh.cells {
		c.ledger = m.ledgerFor(key)
	}
	// Cached candidate sets and budgets predate the partition; the
	// cell-scoped caches rebuild lazily and the link table goes unused.
	clear(m.reach)
	clear(m.rows)
	if s.Workers > 0 {
		m.eng.SetWorkers(s.Workers)
	}
	return nil
}

// Sharded reports whether the medium is spatially sharded.
func (m *Medium) Sharded() bool { return m.shard != nil }

// ShardInfo reports the partition's shape: cell count, cell edge in
// meters, and the detectability ring radius in cells. Zeroes when the
// medium is unsharded.
func (m *Medium) ShardInfo() (cells int, cellSize float64, ring int) {
	if m.shard == nil {
		return 0, 0, 0
	}
	return len(m.shard.cells), m.shard.cellSize, m.shard.ring
}

// place adds slot s to the cell at key, creating the cell on first
// use, keeping members in attach-sequence order.
func (sh *shardState) place(s int32, key cellKey) {
	for int(s) >= len(sh.at) {
		sh.at = append(sh.at, nil)
		sh.seq = append(sh.seq, 0)
	}
	if sh.seq[s] == 0 {
		sh.nextSeq++
		sh.seq[s] = sh.nextSeq
	}
	c := sh.cells[key]
	if c == nil {
		c = &cell{key: key, gains: make(map[uint32]phys.Budget)}
		sh.cells[key] = c
	}
	// Insert keeping attach order: appends are the common case (fresh
	// attaches always carry the highest sequence).
	i := sort.Search(len(c.members), func(i int) bool {
		return sh.seq[c.members[i]] > sh.seq[s]
	})
	c.members = append(c.members, 0)
	copy(c.members[i+1:], c.members[i:])
	c.members[i] = s
	sh.at[s] = c
}

// remove drops slot s from its cell's member list (the cell itself is
// retained: its ledger may still be feeding in-flight deliveries).
func (sh *shardState) remove(s int32) {
	if int(s) >= len(sh.at) || sh.at[s] == nil {
		return
	}
	c := sh.at[s]
	for i, n := range c.members {
		if n == s {
			c.members = append(c.members[:i], c.members[i+1:]...)
			break
		}
	}
	sh.at[s] = nil
	sh.seq[s] = 0
}

// ledgerFor rebuilds the ledger of the cell at key from the global
// active list: every transmission whose origin cell is within the
// detectability ring, in transmit order. Used when a cell springs into
// existence mid-flight (attach or migration into fresh ground).
func (m *Medium) ledgerFor(key cellKey) []*transmission {
	var out []*transmission
	for _, t := range m.active {
		if t.pruned {
			continue
		}
		if chebyshev(t.ocx-key.cx, t.ocy-key.cy) <= m.shard.ring {
			out = append(out, t)
		}
	}
	return out
}

func chebyshev(dx, dy int) int {
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dy > dx {
		return dy
	}
	return dx
}

// forRing visits every existing cell within the detectability ring of
// key, in deterministic row-major order.
func (sh *shardState) forRing(key cellKey, fn func(*cell)) {
	for dy := -sh.ring; dy <= sh.ring; dy++ {
		for dx := -sh.ring; dx <= sh.ring; dx++ {
			if c, ok := sh.cells[cellKey{key.cx + dx, key.cy + dy}]; ok {
				fn(c)
			}
		}
	}
}

// register files t into the ledgers of all cells its RF energy can
// reach: those within the ring of its origin cell.
func (sh *shardState) register(t *transmission) {
	sh.forRing(cellKey{t.ocx, t.ocy}, func(c *cell) {
		c.ledger = append(c.ledger, t)
	})
}

// invalidateRing drops the cached candidate sets of every transmitter
// whose fan-out can include nodes in the ring around key — exactly the
// transmitters resident in cells within the ring (spatial symmetry:
// node X can hear node Y only if Y can be ring-reached from X's cell).
func (m *Medium) invalidateRing(key cellKey) {
	m.shard.forRing(key, func(c *cell) {
		for _, s := range c.members {
			m.reach[s] = nil
		}
	})
}

// purgeGains deletes cached budgets involving id: links INTO id live
// in id's own cell; links FROM id live in the cells of receivers
// within the detectability ring of id's cell (budgets are only ever
// cached against current positions, so nothing farther can hold one).
func (m *Medium) purgeGains(id phys.NodeID, key cellKey) {
	m.shard.forRing(key, func(c *cell) {
		for k := range c.gains {
			if phys.NodeID(k>>16) == id || phys.NodeID(k&0xFFFF) == id {
				delete(c.gains, k)
			}
		}
	})
}

// shardAttach wires a newly attached node into the partition.
func (m *Medium) shardAttach(s int32, pos phys.Position) {
	key := m.keyFor(pos)
	fresh := m.shard.cells[key] == nil
	m.shard.place(s, key)
	if fresh {
		m.shard.cells[key].ledger = m.ledgerFor(key)
	}
	// Nearby transmitters must see the newcomer in their candidate
	// sets; distant ones provably cannot reach it.
	m.invalidateRing(key)
}

// shardDetach removes a node from the partition.
func (m *Medium) shardDetach(s int32) {
	c := m.cellOf(s)
	if c == nil {
		return
	}
	m.purgeGains(m.slots[s].id, c.key)
	m.shard.remove(s)
	m.invalidateRing(c.key)
}

// shardMove migrates a node between cells after a position change and
// scopes the invalidation to the two detectability rings involved:
// every transmitter that could reach the node at either position gets
// a fresh candidate set, everyone else keeps theirs — at 10k nodes
// that is the difference between O(ring²·density) and O(N) per step
// of a walking workstation.
func (m *Medium) shardMove(s int32) {
	sh := m.shard
	c := m.cellOf(s)
	if c == nil {
		return
	}
	id, old := m.slots[s].id, c.key
	// Budgets involving the node are stale at both ends.
	m.purgeGains(id, old)
	m.invalidateRing(old)
	key := m.keyFor(m.slots[s].rx.Position())
	if key != old {
		fresh := sh.cells[key] == nil
		sh.remove(s)
		sh.place(s, key)
		if fresh {
			sh.cells[key].ledger = m.ledgerFor(key)
		}
		m.invalidateRing(key)
		m.purgeGains(id, key)
	}
}

// cellOf returns the cell slot s currently resides in (nil when
// unsharded or the slot is vacant).
func (m *Medium) cellOf(s int32) *cell {
	if m.shard == nil || int(s) >= len(m.shard.at) {
		return nil
	}
	return m.shard.at[s]
}

// shardReach builds tx's candidate set from the cells within the
// detectability ring of its own cell: collect resident nodes, sort
// them back into global attach order, and apply the same reachability
// floor the unsharded index applies. Nodes outside the ring are
// provably under the floor (phys.Model.DetectRange), so the candidate
// set — and the bulk below-sensitivity count — match the unsharded
// index exactly.
func (m *Medium) shardReach(s int32, tx Receiver) *reachability {
	sh := m.shard
	pos := tx.Position()
	var near []int32
	sh.forRing(sh.at[s].key, func(c *cell) {
		near = append(near, c.members...)
	})
	sort.Slice(near, func(i, j int) bool { return sh.seq[near[i]] < sh.seq[near[j]] })
	r := &reachability{}
	for _, other := range near {
		if other == s {
			continue
		}
		b := m.txBudget(s, pos, other, m.slots[other].rx.Position(), sh.at[other])
		if b.Received(maxTxDBm) < radio.SensitivityDBm-FadeMarginDB {
			r.far++
			continue
		}
		r.cand = append(r.cand, other)
	}
	// Out-of-ring nodes are below the floor by construction: count
	// them in bulk so stats match the full-scan index byte for byte.
	// near contains tx itself (it resides in its own cell), which is
	// neither candidate nor far, so the arithmetic works out to
	// "attached nodes other than tx that were not collected".
	out := len(m.order) - len(near)
	if !slices.Contains(near, s) {
		out--
	}
	r.far += uint64(out)
	return r
}

// assess is one receiver's pure delivery physics, computed before any
// observable effect: the static link budget and the
// interference-plus-noise level at the delivery instant. It carries no
// randomness — the corruption draw happens at commit, in candidate
// order.
type assess struct {
	rx Receiver
	b  phys.Budget
	// inDBm is noise+interference in dBm at the receiver; interfered
	// reports whether any co-channel transmission overlapped. Only
	// meaningful when scanned is set.
	inDBm      float64
	interfered bool
	// scanned reports that inDBm and interfered were computed. The
	// assessment skips the scan for receivers the commit path never
	// reaches the SINR term for: off-channel, not listening, or under
	// the sensitivity floor before any fault loss.
	scanned bool
}

// assessOne computes one candidate's delivery physics into a. Pure
// with respect to everything outside the receiver's cell: it reads
// medium topology and writes only the cell-scoped budget cache, which
// is what makes per-cell concurrent assessment race-free.
func (m *Medium) assessOne(a *assess, t *transmission, s int32, noiseMW, noiseDBm float64) {
	rx := m.slots[s].rx
	if rx == nil {
		*a = assess{} // detached while the frame was in flight
		return
	}
	c := m.cellOf(s)
	pos := rx.Position()
	*a = assess{rx: rx, b: m.txBudget(t.fromSlot, t.pos, s, pos, c)}
	if rx.Channel() != t.channel || rx.RadioState() != radio.RX ||
		a.b.Received(t.txDBm) < radio.SensitivityDBm {
		// The commit path bails out before the SINR term (fault loss
		// only lowers the power further); skip the scan and its Log10.
		return
	}
	m.scan(a, t, s, c, pos, noiseMW, noiseDBm)
}

// scan fills a's interference-plus-noise level at slot s (in cell c,
// at pos) over the frames overlapping t.
func (m *Medium) scan(a *assess, t *transmission, s int32, c *cell, pos phys.Position, noiseMW, noiseDBm float64) {
	a.scanned = true
	ledger := m.active
	if c != nil {
		ledger = c.ledger
	}
	interfMW := 0.0
	for _, o := range ledger {
		if o == t || o.pruned || o.channel != t.channel || o.fromSlot == s {
			continue
		}
		if o.start >= t.end || o.end <= t.start {
			continue // no temporal overlap
		}
		interfMW += m.interfMW(o, s, pos, c)
		a.interfered = true
	}
	if interfMW == 0 {
		a.inDBm = noiseDBm // noiseMW + 0 is exactly noiseMW
	} else {
		a.inDBm = mwToDBm(noiseMW + interfMW)
	}
}

// assessCells runs the pure assessment of every candidate, grouped by
// the receiver's current cell, across the engine's worker lanes. Cells
// are the unit of concurrency because they are the unit of state
// ownership: a lane touches only its cell's budget cache and ledger.
// Results land in candidate-index slots; the caller commits them in
// index order, so worker count is invisible in the output.
func (m *Medium) assessCells(t *transmission, slots []int32, noiseMW, noiseDBm float64) []assess {
	as := make([]assess, len(slots))
	groups := make(map[*cell][]int)
	var order []*cell
	for i, s := range slots {
		if s == t.fromSlot {
			continue
		}
		c := m.cellOf(s)
		if c == nil {
			continue // detached: zero assess, commit skips it
		}
		if _, seen := groups[c]; !seen {
			order = append(order, c)
		}
		groups[c] = append(groups[c], i)
	}
	m.eng.ForkJoin(len(order), func(lane int) {
		for _, i := range groups[order[lane]] {
			m.assessOne(&as[i], t, slots[i], noiseMW, noiseDBm)
		}
	})
	return as
}
