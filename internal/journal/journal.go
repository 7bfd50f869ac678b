// Package journal is the write-ahead command journal behind lvserved's
// crash recovery. One journal per tenant records, *before execution*,
// every state-mutating command the tenant's simulation accepts, plus
// the seed the simulation was built from. Because a tenant simulation
// is byte-identically deterministic in (seed, command sequence) —
// DESIGN §10 — the journal is a complete checkpoint: rebuilding the
// simulation from the recorded seed and replaying the recorded
// commands resurrects the exact pre-crash state, with no snapshotting.
//
// On disk a journal is a directory of size-capped segment files
// (000001.wal, 000002.wal, ...) of newline-delimited records. Each
// line frames one JSON record with a CRC over the record bytes:
//
//	{"crc":3735928559,"rec":{"t":"cmd","i":12,"line":"ping 192.168.0.3"}}
//
// so a torn tail (the daemon was kill -9'd mid-write, the disk filled)
// is detected on recovery, truncated, and warned about rather than
// poisoning the replay. Record types: "open" (starts every segment;
// carries the tenant name and seed; full=true marks a compacted
// segment that restates the whole history, telling recovery to discard
// anything read from earlier segments), "cmd" (one journaled command
// with its index), and "mark" (periodic compaction markers delimiting
// fsync batches; an integrity checkpoint carrying the next expected
// index).
//
// Durability model: every append is flushed to the OS before the
// command executes, so the journal survives any death of the *process*
// (panic, kill -9) with nothing lost. fsync is batched (Options
// .FsyncEvery) and forced on rotation, compaction, and close, so an
// entire-machine crash can lose at most the last un-synced batch —
// detected and truncated by the CRC framing like any torn tail.
//
// A Journal is owned by a single goroutine (the tenant loop). The
// package-level functions (Compact, TruncatePast, Drop, List) operate
// on closed journals only.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoJournal reports a Recover for a tenant with no journal on disk.
var ErrNoJournal = errors.New("journal: tenant has no journal")

// Options tunes a journal. The zero value is usable.
type Options struct {
	// SegmentCap rotates to a fresh segment file once the current one
	// reaches this many bytes (0 = 1 MiB).
	SegmentCap int64
	// FsyncEvery batches fsync: the file is synced after this many
	// appends (0 = 8; 1 = sync every append). Every append is still
	// flushed to the OS immediately — see the package durability model.
	FsyncEvery int
	// MarkEvery writes a compaction marker every this many appends
	// (0 = 256; negative disables).
	MarkEvery int
	// Logf receives recovery warnings (torn tails, seed mismatches).
	// Nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SegmentCap <= 0 {
		o.SegmentCap = 1 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 8
	}
	if o.MarkEvery == 0 {
		o.MarkEvery = 256
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Entry is one journaled command: its position in the tenant's
// accepted-command sequence and the command line itself.
type Entry struct {
	Index uint64
	Line  string
}

// record is the on-disk payload inside one CRC frame.
type record struct {
	Type   string `json:"t"`                // "open", "cmd", "mark"
	Tenant string `json:"tenant,omitempty"` // open
	Seed   uint64 `json:"seed,omitempty"`   // open
	Full   bool   `json:"full,omitempty"`   // open: segment restates the whole history
	Index  uint64 `json:"i,omitempty"`      // cmd: entry index; mark: next expected index
	Line   string `json:"line,omitempty"`   // cmd
}

// frame is one journal line: the record bytes plus their CRC.
type frame struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func encodeFrame(r record) ([]byte, error) {
	rec, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"crc":%d,"rec":%s}`+"\n", crc32.Checksum(rec, castagnoli), rec)), nil
}

func decodeFrame(line []byte) (record, error) {
	var f frame
	if err := json.Unmarshal(line, &f); err != nil {
		return record{}, fmt.Errorf("journal: bad frame: %w", err)
	}
	if crc32.Checksum(f.Rec, castagnoli) != f.CRC {
		return record{}, errors.New("journal: record CRC mismatch")
	}
	var r record
	if err := json.Unmarshal(f.Rec, &r); err != nil {
		return record{}, fmt.Errorf("journal: bad record: %w", err)
	}
	return r, nil
}

const (
	segSuffix    = ".wal"
	tenantPrefix = "t-"
)

// tenantDir maps a tenant name onto a filesystem-safe directory. The
// prefix keeps escaped names distinct from anything else in the dir
// and makes "." / ".." impossible.
func tenantDir(dir, tenant string) string {
	return filepath.Join(dir, tenantPrefix+url.QueryEscape(tenant))
}

func segName(n int) string { return fmt.Sprintf("%06d%s", n, segSuffix) }

// segments lists a tenant directory's segment files in replay order.
func segments(d string) (names []string, maxSeg int, err error) {
	ents, err := os.ReadDir(d)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
		if err != nil {
			continue
		}
		if n > maxSeg {
			maxSeg = n
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, maxSeg, nil
}

// Journal is one tenant's open write-ahead log. Single-goroutine.
type Journal struct {
	dir    string // tenant directory
	tenant string
	seed   uint64
	opt    Options

	f        *os.File
	size     int64
	seg      int
	next     uint64 // next entry index
	unsynced int
	appends  int // since the last mark
	err      error
}

// Create starts a fresh journal for the tenant, discarding any
// previous one: a brand-new tenant means a brand-new simulation, so
// stale history must not resurrect into it.
func Create(dir, tenant string, seed uint64, opt Options) (*Journal, error) {
	opt = opt.withDefaults()
	d := tenantDir(dir, tenant)
	if err := os.RemoveAll(d); err != nil {
		return nil, fmt.Errorf("journal: reset %s: %w", d, err)
	}
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", d, err)
	}
	j := &Journal{dir: d, tenant: tenant, seed: seed, opt: opt}
	if err := j.openSegment(1, false); err != nil {
		return nil, err
	}
	return j, nil
}

// Recover opens an existing journal for replay-then-append: it reads
// every segment, CRC-verifies each record, repairs a torn tail
// (truncate + warn via Options.Logf), and returns the recorded entries
// in order. The returned journal appends after the last good entry.
func Recover(dir, tenant string, opt Options) (*Journal, []Entry, error) {
	opt = opt.withDefaults()
	d := tenantDir(dir, tenant)
	if _, err := os.Stat(d); err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("%w: %q", ErrNoJournal, tenant)
		}
		return nil, nil, err
	}
	seed, entries, maxSeg, err := loadAndRepair(d, tenant, opt)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: d, tenant: tenant, seed: seed, opt: opt}
	if len(entries) > 0 {
		j.next = entries[len(entries)-1].Index + 1
	}
	// Append into a fresh segment rather than reopening the repaired
	// tail: rotation is cheap and sidesteps every partial-write edge.
	if err := j.openSegment(maxSeg+1, false); err != nil {
		return nil, nil, err
	}
	return j, entries, nil
}

// loadAndRepair reads all segments in order. The first frame that
// fails to decode — torn write, CRC mismatch, index discontinuity — is
// treated as the start of a lost tail: the segment is truncated at
// that byte offset, every later segment is removed, and a warning is
// logged. A full=true open record restates history: entries collected
// from earlier segments are discarded (compaction crash-safety).
func loadAndRepair(d, tenant string, opt Options) (seed uint64, entries []Entry, maxSeg int, err error) {
	names, maxSeg, err := segments(d)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(names) == 0 {
		return 0, nil, 0, fmt.Errorf("%w: %q (empty directory)", ErrNoJournal, tenant)
	}
	var next uint64
	truncateFrom := -1 // index into names of the first dead segment
	for si, name := range names {
		path := filepath.Join(d, name)
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return 0, nil, 0, rerr
		}
		off := 0
		bad := func(reason string) {
			opt.Logf("journal: tenant %q segment %s: %s at byte %d; truncating lost tail", tenant, name, reason, off)
			if terr := os.Truncate(path, int64(off)); terr != nil {
				opt.Logf("journal: tenant %q segment %s: truncate failed: %v", tenant, name, terr)
			}
			truncateFrom = si + 1
		}
	lines:
		for off < len(data) {
			nl := -1
			for i := off; i < len(data); i++ {
				if data[i] == '\n' {
					nl = i
					break
				}
			}
			if nl < 0 {
				bad("unterminated record")
				break
			}
			rec, derr := decodeFrame(data[off:nl])
			if derr != nil {
				bad(derr.Error())
				break
			}
			switch rec.Type {
			case "open":
				if rec.Full {
					entries = entries[:0] // this segment restates everything
					next = 0
				}
				seed = rec.Seed
			case "cmd":
				if rec.Index != next {
					bad(fmt.Sprintf("index %d, want %d", rec.Index, next))
					break lines
				}
				entries = append(entries, Entry{Index: rec.Index, Line: rec.Line})
				next++
			case "mark":
				if rec.Index != next {
					bad(fmt.Sprintf("mark %d, want %d", rec.Index, next))
					break lines
				}
			default:
				bad(fmt.Sprintf("unknown record type %q", rec.Type))
				break lines
			}
			off = nl + 1
		}
		if truncateFrom >= 0 {
			break
		}
	}
	if truncateFrom >= 0 {
		for _, name := range names[truncateFrom:] {
			opt.Logf("journal: tenant %q: removing segment %s past the lost tail", tenant, name)
			if rerr := os.Remove(filepath.Join(d, name)); rerr != nil {
				return 0, nil, 0, rerr
			}
		}
	}
	return seed, entries, maxSeg, nil
}

// openSegment starts segment n with its open record.
func (j *Journal) openSegment(n int, full bool) error {
	f, err := os.OpenFile(filepath.Join(j.dir, segName(n)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: open segment: %w", err)
	}
	j.f, j.seg, j.size = f, n, 0
	if err := j.writeRecord(record{Type: "open", Tenant: j.tenant, Seed: j.seed, Full: full}); err != nil {
		return err
	}
	return j.sync()
}

func (j *Journal) writeRecord(r record) error {
	if j.err != nil {
		return j.err
	}
	line, err := encodeFrame(r)
	if err == nil {
		_, err = j.f.Write(line)
	}
	if err != nil {
		j.err = fmt.Errorf("journal: tenant %q append: %w", j.tenant, err)
		return j.err
	}
	j.size += int64(len(line))
	return nil
}

func (j *Journal) sync() error {
	if j.err != nil {
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("journal: tenant %q sync: %w", j.tenant, err)
		return j.err
	}
	j.unsynced = 0
	return nil
}

// Seed returns the seed recorded for this tenant's simulation.
func (j *Journal) Seed() uint64 { return j.seed }

// Append journals one accepted command ahead of its execution and
// returns the index it was recorded under. The write reaches the OS
// before Append returns; fsync is batched per Options.FsyncEvery.
func (j *Journal) Append(line string) (uint64, error) {
	idx := j.next
	if err := j.writeRecord(record{Type: "cmd", Index: idx, Line: line}); err != nil {
		return 0, err
	}
	j.next++
	j.appends++
	if j.opt.MarkEvery > 0 && j.appends%j.opt.MarkEvery == 0 {
		if err := j.writeRecord(record{Type: "mark", Index: j.next}); err != nil {
			return 0, err
		}
	}
	j.unsynced++
	if j.unsynced >= j.opt.FsyncEvery {
		if err := j.sync(); err != nil {
			return 0, err
		}
	}
	if j.size >= j.opt.SegmentCap {
		if err := j.rotate(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// rotate seals the current segment and starts the next one.
func (j *Journal) rotate() error {
	if err := j.sync(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		j.err = fmt.Errorf("journal: tenant %q rotate: %w", j.tenant, err)
		return j.err
	}
	return j.openSegment(j.seg+1, false)
}

// Close syncs and closes the journal. The files stay on disk — that is
// the point: a closed journal is what Recover resurrects from.
func (j *Journal) Close() error {
	if j.f == nil {
		return j.err
	}
	serr := j.sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// Compact rewrites a closed journal as a single full segment: rotated
// segments merge, markers and truncated tails drop out. Run on clean
// drain so a recovered daemon replays one tidy file per tenant.
func Compact(dir, tenant string, opt Options) error {
	return rewrite(dir, tenant, opt, func(Entry) bool { return true })
}

// TruncatePast rewrites a closed journal keeping only entries with
// Index < index. The supervisor uses it to amputate a poison command
// (and anything after it) so the tenant's good prefix stays
// recoverable instead of crash-looping on replay.
func TruncatePast(dir, tenant string, index uint64, opt Options) error {
	return rewrite(dir, tenant, opt, func(e Entry) bool { return e.Index < index })
}

// rewrite loads a closed journal and replaces it with one full segment
// holding the kept entries. The new segment is written and synced
// under a temporary name first and old segments are removed only after
// the rename, so a crash mid-rewrite leaves either the old segments or
// a full=true segment that restates everything — never a mix replay
// would double-count.
func rewrite(dir, tenant string, opt Options, keep func(Entry) bool) error {
	opt = opt.withDefaults()
	d := tenantDir(dir, tenant)
	seed, entries, maxSeg, err := loadAndRepair(d, tenant, opt)
	if err != nil {
		return err
	}
	tmp := filepath.Join(d, "rewrite.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", d, err)
	}
	write := func(r record) error {
		line, err := encodeFrame(r)
		if err == nil {
			_, err = f.Write(line)
		}
		return err
	}
	kept := 0
	werr := write(record{Type: "open", Tenant: tenant, Seed: seed, Full: true})
	for _, e := range entries {
		if werr != nil {
			break
		}
		if keep(e) {
			werr = write(record{Type: "cmd", Index: e.Index, Line: e.Line})
			kept++
		}
	}
	if werr == nil {
		werr = write(record{Type: "mark", Index: uint64(kept)})
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: rewrite %s: %w", d, werr)
	}
	names, _, err := segments(d)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d, segName(maxSeg+1))); err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", d, err)
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(d, name)); err != nil {
			return err
		}
	}
	return nil
}

// Drop removes a tenant's journal entirely (idle reap: a reaped tenant
// deliberately starts fresh on its next hello).
func Drop(dir, tenant string) error {
	return os.RemoveAll(tenantDir(dir, tenant))
}

// List names every tenant with a journal under dir, sorted. A missing
// dir lists empty: a daemon started with -recover and a virgin journal
// directory has nothing to restore, which is not an error.
func List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), tenantPrefix) {
			continue
		}
		name, err := url.QueryUnescape(strings.TrimPrefix(e.Name(), tenantPrefix))
		if err != nil {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
