package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustCreate(t *testing.T, dir, tenant string, seed uint64, opt Options) *Journal {
	t.Helper()
	j, err := Create(dir, tenant, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendAll(t *testing.T, j *Journal, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if _, err := j.Append(line); err != nil {
			t.Fatalf("Append(%q): %v", line, err)
		}
	}
}

func recoverLines(t *testing.T, dir, tenant string, opt Options) (*Journal, []string) {
	t.Helper()
	j, entries, err := Recover(dir, tenant, opt)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(entries))
	for i, e := range entries {
		if e.Index != uint64(i) {
			t.Fatalf("entry %d has index %d", i, e.Index)
		}
		lines[i] = e.Line
	}
	return j, lines
}

// TestRoundTrip: create, append, close, recover — entries come back in
// order with the recorded seed, and the recovered journal appends at
// the right index.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 42, Options{})
	appendAll(t, j, "cd 192.168.0.1", "ping 192.168.0.2")
	if idx, err := j.Append("stats"); err != nil || idx != 2 {
		t.Fatalf("third Append = (%d, %v), want (2, nil)", idx, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, lines := recoverLines(t, dir, "lab", Options{})
	defer r.Close()
	if r.Seed() != 42 {
		t.Fatalf("recovered seed = %d, want 42", r.Seed())
	}
	want := []string{"cd 192.168.0.1", "ping 192.168.0.2", "stats"}
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", lines, want)
	}
	if idx, err := r.Append("pwd"); err != nil || idx != 3 {
		t.Fatalf("post-recovery Append = (%d, %v), want (3, nil)", idx, err)
	}
}

// TestCreateWipesOldJournal: a fresh tenant must not inherit a
// predecessor's history.
func TestCreateWipesOldJournal(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 1, Options{})
	appendAll(t, j, "stale")
	j.Close()

	j2 := mustCreate(t, dir, "lab", 2, Options{})
	j2.Close()
	r, lines := recoverLines(t, dir, "lab", Options{})
	defer r.Close()
	if len(lines) != 0 || r.Seed() != 2 {
		t.Fatalf("recovered (%v, seed %d) after re-create, want ([], 2)", lines, r.Seed())
	}
}

// TestTornTailTruncated: garbage appended after the last record (a
// torn write) is detected, truncated with a warning, and the journal
// stays appendable.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 7, Options{})
	appendAll(t, j, "a", "b")
	j.Close()

	seg := filepath.Join(tenantDir(dir, "lab"), segName(1))
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame cut off mid-write: valid prefix, no newline.
	if _, err := f.WriteString(`{"crc":1,"rec":{"t":"cmd","i":2,"li`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var warned []string
	opt := Options{Logf: func(format string, args ...any) {
		warned = append(warned, fmt.Sprintf(format, args...))
	}}
	r, lines := recoverLines(t, dir, "lab", opt)
	if fmt.Sprint(lines) != fmt.Sprint([]string{"a", "b"}) {
		t.Fatalf("recovered %v, want [a b]", lines)
	}
	if len(warned) == 0 || !strings.Contains(warned[0], "truncating") {
		t.Fatalf("no truncation warning, got %v", warned)
	}
	appendAll(t, r, "c")
	r.Close()

	r2, lines2 := recoverLines(t, dir, "lab", Options{})
	r2.Close()
	if fmt.Sprint(lines2) != fmt.Sprint([]string{"a", "b", "c"}) {
		t.Fatalf("after repair + append recovered %v, want [a b c]", lines2)
	}
}

// TestCorruptMidFile: a CRC mismatch in the middle of a segment drops
// that record and everything after it — replaying past corruption
// would silently diverge from the real pre-crash state.
func TestCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 7, Options{})
	appendAll(t, j, "a", "b", "c")
	j.Close()

	seg := filepath.Join(tenantDir(dir, "lab"), segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the record holding "b".
	i := strings.Index(string(data), `"line":"b"`)
	if i < 0 {
		t.Fatalf("record for b not found in %q", data)
	}
	data[i+9] = 'X'
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned bool
	r, lines := recoverLines(t, dir, "lab", Options{Logf: func(string, ...any) { warned = true }})
	r.Close()
	if fmt.Sprint(lines) != fmt.Sprint([]string{"a"}) {
		t.Fatalf("recovered %v past a CRC mismatch, want [a]", lines)
	}
	if !warned {
		t.Fatal("CRC mismatch produced no warning")
	}
}

// TestSegmentRotation: appends past the size cap rotate into new
// segment files, and recovery stitches all segments back together.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 9, Options{SegmentCap: 256})
	var want []string
	for i := 0; i < 40; i++ {
		line := fmt.Sprintf("cmd-%02d", i)
		want = append(want, line)
	}
	appendAll(t, j, want...)
	j.Close()

	names, _, err := segments(tenantDir(dir, "lab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("got %d segments, want rotation to have produced >= 3: %v", len(names), names)
	}

	r, lines := recoverLines(t, dir, "lab", Options{})
	r.Close()
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Fatalf("recovered %v across segments, want %v", lines, want)
	}
}

// TestTornTailRemovesLaterSegments: corruption in an early segment
// invalidates every later segment, not just the rest of the file.
func TestTornTailRemovesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 9, Options{SegmentCap: 256})
	for i := 0; i < 40; i++ {
		appendAll(t, j, fmt.Sprintf("cmd-%02d", i))
	}
	j.Close()
	d := tenantDir(dir, "lab")
	names, _, err := segments(d)
	if err != nil || len(names) < 3 {
		t.Fatalf("need >= 3 segments, got %v (err %v)", names, err)
	}
	// Chop the first segment mid-record.
	first := filepath.Join(d, names[0])
	data, _ := os.ReadFile(first)
	if err := os.Truncate(first, int64(len(data)-10)); err != nil {
		t.Fatal(err)
	}

	r, lines := recoverLines(t, dir, "lab", Options{})
	r.Close()
	for _, line := range lines {
		if line == "cmd-39" {
			t.Fatal("recovery kept entries from segments after the torn one")
		}
	}
	left, _, err := segments(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range left[1:] {
		if name < names[len(names)-1] && name != names[0] {
			// Only the truncated first segment and the fresh append
			// segment should remain from the originals.
			if containsStr(names[1:], name) {
				t.Fatalf("stale segment %s survived tail removal (have %v)", name, left)
			}
		}
	}
}

func containsStr(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// TestCompact merges rotated segments into one full segment with
// identical replay semantics.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 5, Options{SegmentCap: 256})
	var want []string
	for i := 0; i < 30; i++ {
		line := fmt.Sprintf("cmd-%02d", i)
		want = append(want, line)
	}
	appendAll(t, j, want...)
	j.Close()

	if err := Compact(dir, "lab", Options{}); err != nil {
		t.Fatal(err)
	}
	names, _, err := segments(tenantDir(dir, "lab"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("compaction left %d segments: %v", len(names), names)
	}
	r, lines := recoverLines(t, dir, "lab", Options{})
	r.Close()
	if fmt.Sprint(lines) != fmt.Sprint(want) || r.Seed() != 5 {
		t.Fatalf("post-compaction recovered (%v, seed %d)", lines, r.Seed())
	}
}

// TestTruncatePast amputates a poison entry and everything after it.
func TestTruncatePast(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 5, Options{})
	appendAll(t, j, "a", "b", "poison", "after")
	j.Close()

	if err := TruncatePast(dir, "lab", 2, Options{}); err != nil {
		t.Fatal(err)
	}
	r, lines := recoverLines(t, dir, "lab", Options{})
	if fmt.Sprint(lines) != fmt.Sprint([]string{"a", "b"}) {
		t.Fatalf("after TruncatePast(2) recovered %v, want [a b]", lines)
	}
	if idx, err := r.Append("fresh"); err != nil || idx != 2 {
		t.Fatalf("append after truncate = (%d, %v), want (2, nil)", idx, err)
	}
	r.Close()
}

// TestMarks: periodic marks are written and do not disturb recovery.
func TestMarks(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 1, Options{MarkEvery: 2})
	appendAll(t, j, "a", "b", "c", "d", "e")
	j.Close()

	data, err := os.ReadFile(filepath.Join(tenantDir(dir, "lab"), segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"t":"mark"`); n != 2 {
		t.Fatalf("got %d marks for 5 appends at MarkEvery=2, want 2", n)
	}
	r, lines := recoverLines(t, dir, "lab", Options{})
	r.Close()
	if fmt.Sprint(lines) != fmt.Sprint([]string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("marks disturbed recovery: %v", lines)
	}
}

// TestListAndDrop: tenant names with path-hostile characters survive
// the round trip, and Drop removes exactly one tenant.
func TestListAndDrop(t *testing.T) {
	dir := t.TempDir()
	names := []string{"lab/a", "..", "plain", "sp ace"}
	for i, name := range names {
		j := mustCreate(t, dir, name, uint64(i+1), Options{})
		appendAll(t, j, "x")
		j.Close()
	}
	got, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"..", "lab/a", "plain", "sp ace"}) {
		t.Fatalf("List = %v", got)
	}
	if err := Drop(dir, "lab/a"); err != nil {
		t.Fatal(err)
	}
	got, err = List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if containsStr(got, "lab/a") || len(got) != 3 {
		t.Fatalf("after Drop List = %v", got)
	}
	// A dropped tenant has no journal.
	if _, _, err := Recover(dir, "lab/a", Options{}); err == nil || !strings.Contains(err.Error(), "no journal") {
		t.Fatalf("Recover after Drop = %v, want ErrNoJournal", err)
	}
}

// TestListMissingDir: a never-created journal dir lists empty.
func TestListMissingDir(t *testing.T) {
	got, err := List(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(got) != 0 {
		t.Fatalf("List(missing) = (%v, %v), want ([], nil)", got, err)
	}
}
