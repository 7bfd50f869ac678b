package medium

import (
	"math"
	"slices"
	"sort"

	"liteview/internal/phys"
	"liteview/internal/radio"
)

// Cells: the one structure the medium fans out through.
//
// Space is partitioned into square grid cells. RF energy is local —
// phys.Model.DetectRange bounds the distance beyond which no link can
// clear the reachability floor even with the most favourable shadowing
// draw — so a transmission cannot touch nodes outside a bounded
// Chebyshev ring of cells around its origin. Each cell owns its
// members (in global attach order), the ledger of active transmissions
// whose origin is within its ring, and the dense link table of budgets
// into its members. Candidate sets are collected from the ring, and a
// delivery's SINR scan walks the receiver cell's ledger.
//
// An unsharded medium is a single unbounded cell (cell size +Inf, ring
// 0) holding every node: its ledger is every active transmission and
// its table holds every cached pair. SetSharding only chooses a finite
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
// transmissions that can touch them, and the budgets into them.
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
	// rows is the cell's link table. rows[o][j][k] is the link from the
	// node in local slot j of the cell at ring offset o (grid.offset)
	// into the member in local slot k of this cell. Rows are allocated
	// the first time their transmitter's budgets are needed.
	rows [][][]link
	// slots counts the local slots handed out; free holds vacated ones
	// for reuse. A freed slot's row and column are purged first.
	slots int32
	free  []int32
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
	// res is indexed by attach slot.
	res     []residence
	nextSeq uint64
}

// partition (re)builds the grid at the given cell size (+Inf for the
// unsharded medium's single cell): attached nodes are placed in attach
// order and in-flight transmissions re-registered. Link tables and
// candidate sets start empty.
func (m *Medium) partition(size float64) {
	ring := 0
	if !math.IsInf(size, 1) {
		ring = int(math.Ceil(m.model.DetectRange(maxTxDBm, radio.SensitivityDBm-FadeMarginDB) / size))
	}
	m.grid = grid{cellSize: size, ring: ring, cells: make(map[cellKey]*cell),
		res: make([]residence, len(m.slots))}
	g := &m.grid
	for _, s := range m.order {
		g.place(s, m.keyFor(m.slots[s].rx.Position()))
	}
	for _, t := range m.active {
		t.origin = m.keyFor(t.pos)
	}
	for key, c := range g.cells {
		c.ledger = m.ledgerFor(key)
	}
	clear(m.reach)
}

// SetSharding partitions the medium into spatial cells of the given
// size, replacing the current partition. Attached nodes are placed
// immediately; in-flight transmissions are re-registered into the new
// cells.
func (m *Medium) SetSharding(s Sharding) {
	size := s.CellSize
	if size <= 0 {
		size = m.model.DetectRange(maxTxDBm, radio.SensitivityDBm-FadeMarginDB)
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
		c = &cell{key: key, rows: make([][][]link, w*w)}
		g.cells[key] = c
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
// its budgets first. The cell itself is retained: its ledger may still
// be feeding in-flight deliveries.
func (g *grid) remove(s int32) {
	g.purge(s)
	r := &g.res[s]
	r.c.members = slices.DeleteFunc(r.c.members, func(n int32) bool { return n == s })
	r.c.free = append(r.c.free, r.loc)
	*r = residence{}
}

// purge unsets every cached budget into or out of slot s: its column of
// its own cell's table, and its row in the tables of the cells within
// its ring (budgets are only cached against current positions, so
// nothing farther can hold one).
func (g *grid) purge(s int32) {
	r := g.res[s]
	for _, rows := range r.c.rows {
		for _, row := range rows {
			if int(r.loc) < len(row) {
				row[r.loc] = unsetLink
			}
		}
	}
	g.forRing(r.c.key, func(c *cell) {
		o, _ := g.offset(r.c.key, c.key)
		if rows := c.rows[o]; int(r.loc) < len(rows) {
			rows[r.loc] = rows[r.loc][:0]
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
			m.reach[s] = nil
		}
	})
}

// link returns the table entry for the link from slot fs into slot ts
// (residing at to), computing its budget from the given positions on
// first use. The caller guarantees both slots are attached and fs is at
// fromPos. It returns nil when ts's cell is outside fs's ring (a
// receiver that migrated away while a frame was in flight): such a link
// is never cached.
func (m *Medium) link(fs, ts int32, to residence, fromPos, toPos phys.Position) *link {
	g := &m.grid
	from := &g.res[fs]
	o := 0 // a single cell's only ring offset
	if g.ring > 0 {
		var ok bool
		if o, ok = g.offset(from.c.key, to.c.key); !ok {
			return nil
		}
	}
	if rows := to.c.rows[o]; int(from.loc) < len(rows) {
		if row := rows[from.loc]; int(to.loc) < len(row) {
			if l := &row[to.loc]; !math.IsNaN(l.b.PathLossDB) {
				return l
			}
		}
	}
	return m.fill(fs, ts, to, o, fromPos, toPos)
}

// fill is link's slow path: it grows the row set and row as needed and
// computes the budget into the unset entry.
func (m *Medium) fill(fs, ts int32, to residence, o int, fromPos, toPos phys.Position) *link {
	from := m.grid.res[fs]
	rows := to.c.rows[o]
	if int(from.loc) >= len(rows) {
		rows = slices.Grow(rows, int(from.c.slots)-len(rows))[:from.c.slots]
		to.c.rows[o] = rows
	}
	row := rows[from.loc]
	if int(to.loc) >= len(row) {
		n := len(row)
		row = slices.Grow(row, int(to.c.slots)-n)[:to.c.slots]
		for i := n; i < len(row); i++ {
			row[i] = unsetLink
		}
		rows[from.loc] = row
	}
	l := &row[to.loc]
	*l = link{b: m.model.LinkBudget(m.slots[fs].id, m.slots[ts].id, fromPos, toPos), txDBm: math.NaN()}
	return l
}

// reachFor returns the candidate set of tx (attached in slot s),
// building it on first use after an invalidation: the nodes resident in
// the ring around tx's cell, in global attach order, whose cached gain
// at maximum transmit power clears the sensitivity floor minus the fade
// margin. Nodes outside the ring are provably under the floor
// (phys.Model.DetectRange) and are bulk-counted with the rest.
func (m *Medium) reachFor(s int32, tx Receiver) *reachability {
	if r := m.reach[s]; r != nil {
		return r
	}
	g := &m.grid
	var near []int32
	cells := 0
	g.forRing(g.res[s].c.key, func(c *cell) {
		near = append(near, c.members...)
		cells++
	})
	if cells > 1 {
		sort.Slice(near, func(i, j int) bool { return g.res[near[i]].seq < g.res[near[j]].seq })
	}
	// near holds tx itself, so this counts the attached nodes other than
	// tx that were not collected.
	r := &reachability{far: uint64(len(m.order) - len(near))}
	pos := tx.Position()
	for _, other := range near {
		if other == s {
			continue
		}
		b := m.txBudget(s, pos, other, m.slots[other].rx.Position())
		if b.Received(maxTxDBm) < radio.SensitivityDBm-FadeMarginDB {
			r.far++
			continue
		}
		r.cand = append(r.cand, other)
	}
	m.reach[s] = r
	return r
}

// assess is one receiver's delivery physics, computed before any
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

// assessOne computes one candidate's delivery physics into a.
func (m *Medium) assessOne(a *assess, t *transmission, s int32, noiseMW, noiseDBm float64) {
	rx := m.slots[s].rx
	if rx == nil {
		*a = assess{} // detached while the frame was in flight
		return
	}
	pos := rx.Position()
	*a = assess{rx: rx, b: m.txBudget(t.fromSlot, t.pos, s, pos)}
	if rx.Channel() != t.channel || rx.RadioState() != radio.RX ||
		a.b.Received(t.txDBm) < radio.SensitivityDBm {
		// The commit path bails out before the SINR term (fault loss
		// only lowers the power further); skip the scan and its Log10.
		return
	}
	m.scan(a, t, s, pos, noiseMW, noiseDBm)
}

// scan fills a's interference-plus-noise level at slot s (at pos) over
// the frames in its cell's ledger overlapping t.
func (m *Medium) scan(a *assess, t *transmission, s int32, pos phys.Position, noiseMW, noiseDBm float64) {
	a.scanned = true
	to := m.grid.res[s]
	interfMW := 0.0
	for _, o := range to.c.ledger {
		if o == t || o.pruned || o.channel != t.channel || o.fromSlot == s {
			continue
		}
		if o.start >= t.end || o.end <= t.start {
			continue // no temporal overlap
		}
		interfMW += m.interfMW(o, s, to, pos)
		a.interfered = true
	}
	if interfMW == 0 {
		a.inDBm = noiseDBm // noiseMW + 0 is exactly noiseMW
	} else {
		a.inDBm = mwToDBm(noiseMW + interfMW)
	}
}
