package medium

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"liteview/internal/phys"
)

// Cells: the one structure the medium fans out through.
//
// Space is partitioned into square grid cells. RF energy is local —
// phys.Model.DetectRange bounds the distance beyond which no link can
// clear the reachability floor even with the most favourable shadowing
// draw — so a transmission cannot touch nodes outside a bounded
// Chebyshev ring of cells around its origin. Each cell owns its
// members (in global attach order), the ledger of active transmissions
// whose origin is within its ring, and the power memo of the links into
// its members. Candidate sets are collected from the ring, skipping
// each member farther away than DetectRange before its link budget is
// computed, and a delivery's SINR scans walk an interferer view
// gathered once per frame from the receiver cell's ledger.
//
// An unsharded medium is a single unbounded cell (cell size +Inf, ring
// 0) holding every node: its ledger is every active transmission and
// its memo holds every cached pair. SetSharding only chooses a finite
// cell size. A multi-cell medium differs in one modelled respect:
// signals from transmitters beyond the ring — each under the
// reachability floor, which EnergyDBmAt already treats as silence — are
// left out of SINR sums instead of contributing sub-floor watts
// (DESIGN.md §14 bounds the difference). On deployments that fit inside
// one ring the two are bit-identical.

// Sharding configures the spatially sharded medium.
type Sharding struct {
	// CellSize is the cell edge in meters. Zero derives it from the
	// propagation model: the detectability range at maximum transmit
	// power against the reachability floor, which makes the ring radius
	// exactly one cell. Any positive size is correct — the ring just
	// widens to cover the same physical radius.
	CellSize float64
}

// cellKey addresses one grid cell: floor(position / cellSize).
type cellKey struct{ cx, cy int }

// cell is one spatial shard: the nodes inside one grid square, the
// transmissions that can touch them, and the received powers memoised
// for the links into them.
type cell struct {
	key cellKey
	// members holds the slots of the resident nodes in attach order
	// (by residence.seq), so candidate sets keep the medium's attach
	// order.
	members []int32
	// ledger holds the active transmissions whose origin cell is
	// within the ring — everything a member could possibly hear or be
	// interfered by, in transmit order.
	ledger []*transmission
	// rows is the cell's power memo. rows[o][j] is the row of the
	// transmitter in local slot j of the cell at ring offset o
	// (grid.offset), and its mw[k] the power that transmitter delivers
	// into the member in local slot k of this cell. Rows are allocated
	// the first time their transmitter interferes here.
	rows [][]memoRow
	// slots counts the local slots handed out; free holds vacated ones
	// for reuse. A freed slot's row and column are purged first.
	slots int32
	free  []int32
	// view is the interferer list of the frame being delivered as seen
	// from this cell, valid while viewGen equals the medium's
	// (Medium.viewFor).
	view    []interferer
	viewGen uint64
}

// residence is where an attach slot currently lives: its cell (nil
// while detached), its local slot there, and its place in global attach
// order (monotonic; candidate lists merged from several cells sort back
// into attach order by it).
type residence struct {
	c   *cell
	loc int32
	seq uint64
}

// grid is the medium's partition into cells.
type grid struct {
	cellSize float64
	// ring is the Chebyshev cell radius that covers DetectRange: cells
	// farther apart than ring are provably out of RF reach.
	ring  int
	cells map[cellKey]*cell
	// all lists the cells in creation order, for whole-grid sweeps: a
	// slice walk instead of a map iteration on every prune.
	all []*cell
	// res is indexed by attach slot.
	res     []residence
	nextSeq uint64
}

// partition (re)builds the grid at the given cell size (+Inf for the
// unsharded medium's single cell): attached nodes are placed in attach
// order and in-flight transmissions re-registered. Power memos and
// candidate sets start empty.
func (m *Medium) partition(size float64) {
	m.resetView()
	ring := 0
	if !math.IsInf(size, 1) {
		ring = int(math.Ceil(m.detectRange() / size))
	}
	m.grid = grid{cellSize: size, ring: ring, cells: make(map[cellKey]*cell),
		res: make([]residence, len(m.slots))}
	g := &m.grid
	for _, s := range m.order {
		g.place(s, m.keyFor(m.slots[s].pos))
	}
	for _, t := range m.active {
		t.origin = m.keyFor(t.pos)
	}
	for _, c := range g.all {
		c.ledger = m.ledgerFor(c.key)
	}
	for s := range m.reach {
		m.dropReach(int32(s))
	}
}

// SetSharding partitions the medium into spatial cells of the given
// size, replacing the current partition. Attached nodes are placed
// immediately; in-flight transmissions are re-registered into the new
// cells.
func (m *Medium) SetSharding(s Sharding) {
	size := s.CellSize
	if size <= 0 {
		size = m.detectRange()
	}
	m.partition(size)
}

// Sharded reports whether the medium is partitioned into finite cells.
func (m *Medium) Sharded() bool { return !math.IsInf(m.grid.cellSize, 1) }

// ShardInfo reports the partition's shape: cell count, cell edge in
// meters, and the detectability ring radius in cells. Zeroes when the
// medium is unsharded.
func (m *Medium) ShardInfo() (cells int, cellSize float64, ring int) {
	if !m.Sharded() {
		return 0, 0, 0
	}
	return len(m.grid.cells), m.grid.cellSize, m.grid.ring
}

func (m *Medium) keyFor(p phys.Position) cellKey {
	s := m.grid.cellSize
	return cellKey{int(math.Floor(p.X / s)), int(math.Floor(p.Y / s))}
}

// offset returns the index into a cell's rows of the transmitter cell
// from as seen from the receiver cell to, and false when from is
// outside to's ring.
func (g *grid) offset(from, to cellKey) (int, bool) {
	dx, dy := from.cx-to.cx, from.cy-to.cy
	if chebyshev(dx, dy) > g.ring {
		return 0, false
	}
	return (dy+g.ring)*(2*g.ring+1) + dx + g.ring, true
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

// place adds slot s to the cell at key, creating the cell on first
// use, keeping members in attach-sequence order, and hands it a local
// slot. It reports whether the cell is new.
func (g *grid) place(s int32, key cellKey) (fresh bool) {
	r := &g.res[s]
	if r.seq == 0 {
		g.nextSeq++
		r.seq = g.nextSeq
	}
	c := g.cells[key]
	if c == nil {
		w := 2*g.ring + 1
		c = &cell{key: key, rows: make([][]memoRow, w*w)}
		g.cells[key] = c
		g.all = append(g.all, c)
		fresh = true
	}
	// Insert keeping attach order: appends are the common case (fresh
	// attaches always carry the highest sequence).
	i := sort.Search(len(c.members), func(i int) bool {
		return g.res[c.members[i]].seq > r.seq
	})
	c.members = slices.Insert(c.members, i, s)
	if n := len(c.free); n > 0 {
		r.loc = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		r.loc = c.slots
		c.slots++
	}
	r.c = c
	return fresh
}

// remove drops slot s from its cell and frees its local slot, purging
// its memo entries first. The cell itself is retained: its ledger may
// still be feeding in-flight deliveries.
func (g *grid) remove(s int32) {
	g.purge(s)
	r := &g.res[s]
	r.c.members = slices.DeleteFunc(r.c.members, func(n int32) bool { return n == s })
	r.c.free = append(r.c.free, r.loc)
	*r = residence{}
}

// purge unsets every memo entry into or out of slot s: its column of
// its own cell's memo, and its row in the memos of the cells within its
// ring (entries are only cached against current positions, so nothing
// farther can hold one).
func (g *grid) purge(s int32) {
	r := g.res[s]
	for _, rows := range r.c.rows {
		for _, row := range rows {
			if int(r.loc) < len(row.mw) {
				row.mw[r.loc] = math.NaN()
			}
		}
	}
	g.forRing(r.c.key, func(c *cell) {
		o, _ := g.offset(r.c.key, c.key)
		if rows := c.rows[o]; int(r.loc) < len(rows) {
			rows[r.loc].mw = rows[r.loc].mw[:0]
		}
	})
}

// forRing visits every existing cell within the ring of key, in
// deterministic row-major order.
func (g *grid) forRing(key cellKey, fn func(*cell)) {
	for dy := -g.ring; dy <= g.ring; dy++ {
		for dx := -g.ring; dx <= g.ring; dx++ {
			if c, ok := g.cells[cellKey{key.cx + dx, key.cy + dy}]; ok {
				fn(c)
			}
		}
	}
}

// place puts slot s into the cell at key; a cell springing into
// existence mid-flight gets its ledger rebuilt from the active list.
func (m *Medium) place(s int32, key cellKey) {
	if m.grid.place(s, key) {
		m.grid.cells[key].ledger = m.ledgerFor(key)
	}
}

// ledgerFor returns every active transmission whose origin cell is
// within the ring of key, in transmit order.
func (m *Medium) ledgerFor(key cellKey) []*transmission {
	var out []*transmission
	for _, t := range m.active {
		if !t.pruned && chebyshev(t.origin.cx-key.cx, t.origin.cy-key.cy) <= m.grid.ring {
			out = append(out, t)
		}
	}
	return out
}

// register files t into the ledgers of all cells its RF energy can
// reach: those within the ring of its origin cell.
func (m *Medium) register(t *transmission) {
	m.grid.forRing(t.origin, func(c *cell) {
		c.ledger = append(c.ledger, t)
	})
}

// invalidateRing drops the cached candidate sets of every transmitter
// whose fan-out can include nodes in the ring around key — exactly the
// transmitters resident in cells within the ring (spatial symmetry:
// node X can hear node Y only if Y can be ring-reached from X's cell).
func (m *Medium) invalidateRing(key cellKey) {
	m.grid.forRing(key, func(c *cell) {
		for _, s := range c.members {
			m.dropReach(s)
		}
	})
}

// dropReach drops slot s's cached candidate set and marks it stale.
// In-flight frames may still hold it, and once it is out of the cache
// no later invalidation can reach it, so the mark must come first.
func (m *Medium) dropReach(s int32) {
	if r := m.reach[s]; r != nil {
		r.stale = true
		m.reach[s] = nil
	}
}

// memoRowFor returns the memo row, in cell c, of the transmitter attached
// in slot fs when it emits txDBm, extended to c's local slot count with
// NaN for unset entries; a row tagged with another power is reset first.
// The caller guarantees fs is attached at the position the medium
// recorded for it. It returns nil when c is outside fs's ring (a
// receiver that migrated away while a frame was in flight): such a link
// is never cached.
func (m *Medium) memoRowFor(fs int32, c *cell, txDBm float64) *memoRow {
	g := &m.grid
	from := g.res[fs]
	o := 0 // a single cell's only ring offset
	if g.ring > 0 {
		var ok bool
		if o, ok = g.offset(from.c.key, c.key); !ok {
			return nil
		}
	}
	rows := c.rows[o]
	if int(from.loc) >= len(rows) {
		rows = extend(rows, int(from.c.slots))
		c.rows[o] = rows
	}
	row := &rows[from.loc]
	if row.txDBm != txDBm {
		row.txDBm, row.mw = txDBm, row.mw[:0]
	}
	if n := len(row.mw); n < int(c.slots) {
		row.mw = extend(row.mw, int(c.slots))
		for i := n; i < len(row.mw); i++ {
			row.mw[i] = math.NaN()
		}
	}
	return row
}

// extend returns s resliced to length n (n > len(s)), reallocating at
// exactly n when its capacity is short: a row is sized once to its
// cell's local slot count and seldom grows again.
func extend[E any](s []E, n int) []E {
	if cap(s) < n {
		return append(make([]E, 0, n), s...)[:n]
	}
	return s[:n]
}

// candidate returns the index of slot s in the candidate set r and
// whether s is a candidate. r must be fresh: its candidates are then in
// attach order by their current residences.
func (m *Medium) candidate(r *reachability, s int32) (int, bool) {
	res := m.grid.res
	return slices.BinarySearchFunc(r.cand, res[s].seq, func(c int32, seq uint64) int {
		return cmp.Compare(res[c].seq, seq)
	})
}

// reachFor returns the candidate set of the transmitter attached in
// slot s at transmit power txDBm, building it on first use after an
// invalidation or a power change: the nodes resident in the ring around
// its cell, in global attach order, whose gain at maximum transmit
// power clears the sensitivity floor minus the fade margin, with their
// received powers at txDBm. Nodes outside the ring, and members of it
// farther away than the detectability range, are provably under the
// floor (phys.Model.DetectRange): members are ruled out by distance
// before any budget is computed (overFloor), and Transmit counts all
// of them in bulk with the rest.
func (m *Medium) reachFor(s int32, txDBm float64) *reachability {
	if r := m.reach[s]; r != nil {
		if r.txDBm == txDBm {
			return r
		}
		m.dropReach(s) // built for another power
	}
	g := &m.grid
	near := m.near[:0]
	cells := 0
	from, pos := m.slots[s].id, m.slots[s].pos
	bound := m.reachBound()
	g.forRing(g.res[s].c.key, func(c *cell) {
		for _, o := range c.members {
			if o == s {
				continue
			}
			if b, ok := m.overFloor(from, m.slots[o].id, pos, m.slots[o].pos, bound); ok {
				near = append(near, reached{o, b.Received(txDBm)})
			}
		}
		cells++
	})
	if cells > 1 {
		slices.SortFunc(near, func(a, b reached) int { return cmp.Compare(g.res[a.s].seq, g.res[b.s].seq) })
	}
	r := &reachability{cand: make([]int32, len(near)), rx: make([]float64, len(near)), txDBm: txDBm}
	for i, n := range near {
		r.cand[i], r.rx[i] = n.s, n.rx
	}
	m.near = near
	m.reach[s] = r
	return r
}

// reached is one member of a candidate set being built: its slot and
// its received power.
type reached struct {
	s  int32
	rx float64
}
