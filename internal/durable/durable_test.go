package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

const testMagic = "RTESTv1\n"

func payloads(names ...string) [][]byte {
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

func same(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

func image(recs [][]byte) []byte {
	buf := []byte(testMagic)
	for _, r := range recs {
		buf = AppendFrame(buf, r)
	}
	return buf
}

func TestLogRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "log")
	l, got, err := Open(path, testMagic)
	if err != nil || len(got) != 0 {
		t.Fatalf("fresh open: %d records, err %v", len(got), err)
	}
	want := payloads("a", "", "ccc")
	if err := l.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(want[1:]...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(want[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, image(want)) {
		t.Fatalf("on-disk bytes %q, want %q", raw, image(want))
	}
	// Every cut inside the last record drops exactly that record, and an
	// append after the reopen lands right behind the intact prefix.
	last := len(image(want[:2]))
	for cut := last + 1; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(path, testMagic)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !same(got, want[:2]) {
			t.Fatalf("cut %d: recovered %q, want %q", cut, got, want[:2])
		}
		if err := l.Append([]byte("d")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, got, err = Open(path, testMagic)
		if err != nil || !same(got, payloads("a", "", "d")) {
			t.Fatalf("cut %d: after append recovered %q, err %v", cut, got, err)
		}
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs")
	if err := os.WriteFile(path, []byte(`{"id":"job-1","state":"started"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, testMagic)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(path)) {
		t.Fatalf("foreign file: err %v, want an error naming %s", err, path)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "log"), testMagic)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "assignments.json")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	if err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "v1" {
		t.Fatalf("failed write changed the file to %q", raw)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"assignments.json"}) {
		t.Fatalf("directory holds %v, want only the file", names)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// faultFS is the real file system with injected failures: the at-th call of
// each op named in fail fails (at -1: every call). Failed writes first write
// half their bytes, as a real short write would.
type faultFS struct {
	fail  map[string]int
	calls map[string]int
}

func (fs *faultFS) hit(op string) error {
	fs.calls[op]++
	if at, ok := fs.fail[op]; ok && (at == -1 || at == fs.calls[op]) {
		return fmt.Errorf("injected %s failure", op)
	}
	return nil
}

// install swaps the package's file-system seam for fs and returns the
// function that restores the real one.
func (fs *faultFS) install() (restore func()) {
	realOpen, realTemp, realRename, realSyncDir := openAppend, createTemp, rename, syncDir
	wrap := func(op, prefix string, open func() (file, error)) (file, error) {
		if err := fs.hit(op); err != nil {
			return nil, err
		}
		f, err := open()
		if err != nil {
			return nil, err
		}
		return &faultFile{file: f, fs: fs, prefix: prefix}, nil
	}
	openAppend = func(name string) (file, error) {
		return wrap("open", "", func() (file, error) { return realOpen(name) })
	}
	createTemp = func(dir, pattern string) (file, error) {
		return wrap("create-temp", "temp-", func() (file, error) { return realTemp(dir, pattern) })
	}
	rename = func(oldpath, newpath string) error {
		if err := fs.hit("rename"); err != nil {
			return err
		}
		return realRename(oldpath, newpath)
	}
	syncDir = func(dir string) error {
		if err := fs.hit("dir-fsync"); err != nil {
			return err
		}
		return realSyncDir(dir)
	}
	return func() { openAppend, createTemp, rename, syncDir = realOpen, realTemp, realRename, realSyncDir }
}

type faultFile struct {
	file
	fs     *faultFS
	prefix string // "temp-" for temp files, so their ops count apart
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.hit(f.prefix + "write"); err != nil {
		n, _ := f.file.Write(p[:len(p)/2])
		return n, err
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.hit(f.prefix + "fsync"); err != nil {
		return err
	}
	return f.file.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.hit(f.prefix + "truncate"); err != nil {
		return err
	}
	return f.file.Truncate(size)
}

// crashScript drives Open → Append… → Compact → Append… through faults,
// the way the logs' owners do: a failed append is retried once, and a record
// that still fails ends the script. It returns the records the log
// acknowledged and every record it attempted, in order.
func crashScript(faults *faultFS, path string, seeded [][]byte) (acked, attempted [][]byte) {
	defer faults.install()()
	acked = slices.Clone(seeded)
	attempted = slices.Clone(seeded)
	l, _, err := Open(path, testMagic)
	if err != nil {
		return acked, attempted
	}
	defer l.Close()
	add := func(recs ...[]byte) bool {
		attempted = append(attempted, recs...)
		for range 2 {
			if l.Append(recs...) == nil {
				acked = append(acked, recs...)
				return true
			}
		}
		return false
	}
	if !add([]byte("r1")) || !add([]byte("r2"), []byte("r3")) || !add([]byte("r4")) {
		return acked, attempted
	}
	l.Compact(acked)
	if add([]byte("r5")) {
		add([]byte("r6"))
	}
	return acked, attempted
}

// TestCrashPoints injects one failure at every file-system call of the
// script (and a failing truncate behind every failed append), reopens with
// the real file system, and checks that every acknowledged record came back
// and that what came back is a prefix of what was attempted: no holes.
func TestCrashPoints(t *testing.T) {
	for _, seeded := range [][][]byte{nil, payloads("r0")} {
		// A torn tail behind the seeded records exercises Open's repair.
		seed := func(path string) {
			if seeded == nil {
				return
			}
			img := image(seeded)
			torn := AppendFrame(nil, []byte("torn"))
			if err := os.WriteFile(path, append(img, torn[:3]...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		counter := &faultFS{calls: map[string]int{}}
		path := filepath.Join(t.TempDir(), "log")
		seed(path)
		crashScript(counter, path, seeded)

		var plans []map[string]int
		for op, n := range counter.calls {
			for at := 1; at <= n; at++ {
				plans = append(plans, map[string]int{op: at})
				if op == "write" || op == "fsync" {
					plans = append(plans, map[string]int{op: at, "truncate": -1})
				}
			}
		}
		for _, op := range []string{"write", "fsync", "temp-write", "temp-fsync", "rename", "dir-fsync"} {
			if counter.calls[op] == 0 {
				t.Fatalf("script never calls %s; the crash points do not cover it", op)
			}
		}
		for _, plan := range plans {
			name := fmt.Sprintf("seeded=%v/%v", seeded != nil, plan)
			dir := t.TempDir()
			path := filepath.Join(dir, "log")
			seed(path)
			acked, attempted := crashScript(&faultFS{fail: plan, calls: map[string]int{}}, path, seeded)

			l, got, err := Open(path, testMagic)
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			l.Close()
			if len(got) < len(acked) || !same(got[:len(acked)], acked) {
				t.Fatalf("%s: recovered %q, lost acknowledged %q", name, got, acked)
			}
			if len(got) > len(attempted) || !same(got, attempted[:len(got)]) {
				t.Fatalf("%s: recovered %q is not a prefix of attempted %q", name, got, attempted)
			}
			for _, n := range dirNames(t, dir) {
				if n != "log" {
					t.Fatalf("%s: stray file %s left behind", name, n)
				}
			}
		}
	}
}

// FuzzOpen: arbitrary bytes never panic Open; whatever survives takes a
// later append right behind it and round-trips through compact + reopen.
func FuzzOpen(f *testing.F) {
	valid := image(payloads("alpha", "", "gamma"))
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add([]byte(testMagic))
	f.Add([]byte(testMagic[:3]))
	f.Add([]byte{})
	f.Add(append([]byte(testMagic), 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte(`{"op":"put"}` + "\n"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, testMagic)
		if err != nil {
			if len(data) == 0 || bytes.HasPrefix(data, []byte(testMagic)) {
				t.Fatalf("open of a log image failed: %v", err)
			}
			return
		}
		recs = slices.Clone(recs)
		want := append(slices.Clone(recs), []byte("next"))
		if err := l.Append(want[len(recs)]); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, got, err := Open(path, testMagic)
		if err != nil || !same(got, want) {
			t.Fatalf("after append: recovered %q, err %v, want %q", got, err, want)
		}
		if err := l.Compact(got); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, got, err = Open(path, testMagic)
		if err != nil || !same(got, want) {
			t.Fatalf("after compact: recovered %q, err %v, want %q", got, err, want)
		}
		l.Close()
	})
}
