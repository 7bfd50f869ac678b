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

	seg := tenantPath(dir, "lab")
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

// TestCorruptMidFile: a CRC mismatch in the middle of the file drops
// that record and everything after it — replaying past corruption
// would silently diverge from the real pre-crash state.
func TestCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 7, Options{})
	appendAll(t, j, "a", "b", "c")
	j.Close()

	seg := tenantPath(dir, "lab")
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

// TestRecoverAppendsInPlace: a recovered journal keeps appending to the
// same file, after the torn bytes are cut off. Were they left in place,
// the next frame would share their line and the next recovery would
// drop it together with everything after it.
func TestRecoverAppendsInPlace(t *testing.T) {
	dir := t.TempDir()
	j := mustCreate(t, dir, "lab", 3, Options{})
	appendAll(t, j, "a", "b")
	j.Close()

	const torn = `{"crc":1,"rec":{"t":"cmd","i":2,"li`
	path := tenantPath(dir, "lab")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, _ := recoverLines(t, dir, "lab", Options{})
	appendAll(t, r, "c", "d")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, lines := recoverLines(t, dir, "lab", Options{})
	r2.Close()
	if fmt.Sprint(lines) != fmt.Sprint([]string{"a", "b", "c", "d"}) {
		t.Fatalf("recovered %v after appending past a torn tail, want [a b c d]", lines)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), torn) {
		t.Fatalf("torn bytes survived recovery:\n%s", data)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(path) {
		t.Fatalf("tenant has files %v, want exactly %s", ents, filepath.Base(path))
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
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("after TruncatePast the journal dir holds %v (err %v), want one file", ents, err)
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
	if fmt.Sprint(got) != fmt.Sprint([]string{"..", "plain", "sp ace"}) {
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

// FuzzRecover appends arbitrary bytes after a valid open + cmd prefix.
// Recover must keep the prefix, return index-contiguous entries, and
// leave a journal that a later Append extends by exactly one entry.
func FuzzRecover(f *testing.F) {
	frameOf := func(r record) []byte {
		b, err := encodeFrame(r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := frameOf(record{Type: "cmd", Index: 1, Line: "b"})
	skip := frameOf(record{Type: "cmd", Index: 2, Line: "b"})
	reopen := frameOf(record{Type: "open", Tenant: "fz", Seed: 9})
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte(`{"crc":1,"rec":{"t":"cmd","i":1,"li`))
	f.Add(good)
	f.Add(append(append([]byte{}, good...), good...))
	f.Add(skip)
	f.Add(reopen)
	f.Add(append(append([]byte{}, good...), "garbage"...))
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		j, err := Create(dir, "fz", 7, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append("a"); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		path := tenantPath(dir, "fz")
		w, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(tail); err != nil {
			t.Fatal(err)
		}
		w.Close()

		r, entries, err := Recover(dir, "fz", Options{})
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if r.Seed() != 7 || len(entries) == 0 || entries[0].Line != "a" {
			t.Fatalf("Recover lost the valid prefix: seed %d, entries %+v", r.Seed(), entries)
		}
		for i, e := range entries {
			if e.Index != uint64(i) {
				t.Fatalf("entry %d has index %d: %+v", i, e.Index, entries)
			}
		}
		if idx, err := r.Append("z"); err != nil || idx != uint64(len(entries)) {
			t.Fatalf("Append after Recover = (%d, %v), want (%d, nil)", idx, err, len(entries))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2, again, err := Recover(dir, "fz", Options{})
		if err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		r2.Close()
		want := append(entries, Entry{Index: uint64(len(entries)), Line: "z"})
		if fmt.Sprint(again) != fmt.Sprint(want) {
			t.Fatalf("second Recover = %+v, want %+v", again, want)
		}
	})
}
