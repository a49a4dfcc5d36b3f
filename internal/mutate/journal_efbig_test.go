//go:build linux

package mutate

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// TestJournalFailedAppendKeepsLaterRecords: an Append that fails mid-write
// must not leave a torn record in front of the next acknowledged one. The
// failure is real: RLIMIT_FSIZE is lowered for this process so the write
// stops a few bytes into the record with EFBIG. The retried record is what
// the service appends after reverting the failed mutation.
func TestJournalFailedAppendKeepsLaterRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.mutlog")
	j, _, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	v1 := Record{Version: 1, Op: Op{Kind: InsertEdge, U: 3, V: 9}}
	v2 := Record{Version: 2, Op: Op{Kind: SetAttrs, U: 4, Attrs: []float64{0.25, -1.5}}}
	if err := j.Append([]Record{v1}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = uint64(st.Size()) + 3
	if low.Cur >= lim.Cur {
		t.Skipf("file size limit %d already below the test's", lim.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	appendErr := j.Append([]Record{v2})
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatalf("restore RLIMIT_FSIZE: %v", err)
	}
	if appendErr == nil {
		t.Fatal("append past RLIMIT_FSIZE succeeded")
	}

	if err := j.Append([]Record{v2}); err != nil {
		t.Fatalf("retried append: %v", err)
	}
	j.Close()
	j2, got, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if want := []Record{v1, v2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d record(s) %+v, want both acknowledged records %+v", len(got), got, want)
	}
}
