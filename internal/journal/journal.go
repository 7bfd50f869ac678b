// Package journal is the write-ahead command journal behind lvserved's
// crash recovery. One journal per tenant records, *before execution*,
// every state-mutating command the tenant's simulation accepts, plus
// the seed the simulation was built from. Because a tenant simulation
// is byte-identically deterministic in (seed, command sequence) —
// DESIGN §10 — the journal is a complete checkpoint: rebuilding the
// simulation from the recorded seed and replaying the recorded
// commands resurrects the exact pre-crash state, with no snapshotting.
//
// On disk a journal is one append-only file per tenant,
// <dir>/t-<escaped name>.wal, of newline-delimited records. Each line
// frames one JSON record with a CRC over the record bytes:
//
//	{"crc":3735928559,"rec":{"t":"cmd","i":12,"line":"ping 192.168.0.3"}}
//
// so a torn tail (the daemon was kill -9'd mid-write, the disk filled)
// is detected on recovery, truncated, and warned about rather than
// poisoning the replay. The file starts with an "open" record (the
// tenant name and seed), followed by "cmd" records (one journaled
// command each) with consecutive indexes from 0. Recovery truncates
// the file at the first bad frame and keeps appending to it; a clean
// drain leaves the closed file as it is.
//
// Durability model: every append is flushed to the OS before the
// command executes, so the journal survives any death of the *process*
// (panic, kill -9) with nothing lost. fsync is batched (Options
// .FsyncEvery) and forced on close, so an entire-machine crash can
// lose at most the last un-synced batch — detected and truncated by
// the CRC framing like any torn tail.
//
// A Journal is owned by a single goroutine (the tenant loop). The
// package-level functions (TruncatePast, Drop, List) operate on closed
// journals only.
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
	"strings"
)

// ErrNoJournal reports a Recover for a tenant with no journal on disk,
// or with a file that lacks the open record every journal starts with.
var ErrNoJournal = errors.New("journal: tenant has no journal")

// Options tunes a journal. The zero value is usable.
type Options struct {
	// FsyncEvery batches fsync: the file is synced after this many
	// appends (0 = 8; 1 = sync every append). Every append is still
	// flushed to the OS immediately — see the package durability model.
	FsyncEvery int
	// Logf receives recovery warnings (torn tails). Nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 8
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
	Type   string `json:"t"`                // "open", "cmd"
	Tenant string `json:"tenant,omitempty"` // open
	Seed   uint64 `json:"seed,omitempty"`   // open
	Index  uint64 `json:"i,omitempty"`      // cmd: entry index
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
	fileSuffix   = ".wal"
	tenantPrefix = "t-"
)

// tenantPath maps a tenant name onto a filesystem-safe file name. The
// prefix keeps escaped names distinct from anything else in the dir
// and makes "." / ".." impossible.
func tenantPath(dir, tenant string) string {
	return filepath.Join(dir, tenantPrefix+url.QueryEscape(tenant)+fileSuffix)
}

// Journal is one tenant's open write-ahead log. Single-goroutine.
type Journal struct {
	tenant string
	seed   uint64
	opt    Options

	f        *os.File
	next     uint64 // next entry index
	unsynced int
	err      error
}

// Create starts a fresh journal for the tenant, discarding any
// previous one: a brand-new tenant means a brand-new simulation, so
// stale history must not resurrect into it.
func Create(dir, tenant string, seed uint64, opt Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	path := tenantPath(dir, tenant)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	j := &Journal{tenant: tenant, seed: seed, opt: opt.withDefaults(), f: f}
	if err := j.writeRecord(record{Type: "open", Tenant: tenant, Seed: seed}); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.sync(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Recover opens an existing journal for replay-then-append: it reads
// the file, CRC-verifies each record, repairs a torn tail (truncate +
// warn via Options.Logf), and returns the recorded entries in order.
// The returned journal appends to the same file after the last good
// entry.
func Recover(dir, tenant string, opt Options) (*Journal, []Entry, error) {
	opt = opt.withDefaults()
	path := tenantPath(dir, tenant)
	seed, entries, err := load(path, tenant, opt)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reopen %s: %w", path, err)
	}
	return &Journal{tenant: tenant, seed: seed, opt: opt, f: f, next: uint64(len(entries))}, entries, nil
}

// load reads a closed journal. The first frame that fails to decode —
// torn write, CRC mismatch, index discontinuity — is treated as the
// start of a lost tail: the file is truncated at that byte offset and a
// warning is logged. A file whose first frame is not a good open record
// (a crash inside Create leaves it empty) has no seed to replay from and
// counts as no journal.
func load(path, tenant string, opt Options) (seed uint64, entries []Entry, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, fmt.Errorf("%w: %q", ErrNoJournal, tenant)
		}
		return 0, nil, err
	}
	off := 0
	for off < len(data) {
		nl := off
		for nl < len(data) && data[nl] != '\n' {
			nl++
		}
		reason := ""
		if nl == len(data) {
			reason = "unterminated record"
		} else if rec, derr := decodeFrame(data[off:nl]); derr != nil {
			reason = derr.Error()
		} else if off == 0 {
			if rec.Type != "open" {
				reason = fmt.Sprintf("first record is %q, want \"open\"", rec.Type)
			}
			seed = rec.Seed
		} else if rec.Type != "cmd" {
			reason = fmt.Sprintf("unexpected record type %q", rec.Type)
		} else if want := uint64(len(entries)); rec.Index != want {
			reason = fmt.Sprintf("index %d, want %d", rec.Index, want)
		} else {
			entries = append(entries, Entry{Index: rec.Index, Line: rec.Line})
		}
		if reason != "" {
			if off == 0 {
				return 0, nil, fmt.Errorf("%w: %q: no open record: %s", ErrNoJournal, tenant, reason)
			}
			opt.Logf("journal: tenant %q: %s at byte %d; truncating lost tail", tenant, reason, off)
			if err := os.Truncate(path, int64(off)); err != nil {
				return 0, nil, fmt.Errorf("journal: tenant %q: truncating lost tail: %w", tenant, err)
			}
			break
		}
		off = nl + 1
	}
	if off == 0 {
		return 0, nil, fmt.Errorf("%w: %q: empty file", ErrNoJournal, tenant)
	}
	return seed, entries, nil
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
	}
	return j.err
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
	j.unsynced++
	if j.unsynced >= j.opt.FsyncEvery {
		if err := j.sync(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// Close syncs and closes the journal. The file stays on disk — that is
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

// TruncatePast rewrites a closed journal keeping only entries with
// Index < index. The supervisor uses it to amputate a poison command
// (and anything after it) so the tenant's good prefix stays
// recoverable instead of crash-looping on replay. The kept prefix is
// written and synced to a temporary file in the same directory and
// renamed over the journal, so a crash mid-rewrite leaves either the
// old journal or the new one.
func TruncatePast(dir, tenant string, index uint64, opt Options) error {
	path := tenantPath(dir, tenant)
	seed, entries, err := load(path, tenant, opt.withDefaults())
	if err != nil {
		return err
	}
	if index < uint64(len(entries)) {
		entries = entries[:index]
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", path, err)
	}
	j := &Journal{tenant: tenant, f: f}
	j.writeRecord(record{Type: "open", Tenant: tenant, Seed: seed})
	for _, e := range entries {
		j.writeRecord(record{Type: "cmd", Index: e.Index, Line: e.Line})
	}
	werr := j.Close()
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: rewrite %s: %w", path, werr)
	}
	return nil
}

// Drop removes a tenant's journal entirely (idle reap: a reaped tenant
// deliberately starts fresh on its next hello).
func Drop(dir, tenant string) error {
	if err := os.Remove(tenantPath(dir, tenant)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
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
		base, ok := strings.CutSuffix(e.Name(), fileSuffix)
		if !e.Type().IsRegular() || !ok || !strings.HasPrefix(base, tenantPrefix) {
			continue
		}
		name, err := url.QueryUnescape(strings.TrimPrefix(base, tenantPrefix))
		if err != nil {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
