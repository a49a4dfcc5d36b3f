// Package durable owns every crash guarantee for the files the server
// writes: append-only logs of framed records (mutation journal, standing
// sidecar, job journal) and atomically replaced whole files (assignments,
// snapshots).
//
// A log file is a magic string followed by records:
//
//	record: uvarint len | payload | crc32(payload) LE32
//
// Append writes all its records with one write and one fsync; a record is
// durable once Append returns. A failed Append truncates the file back to
// its last good size, so a later acknowledged record never sits behind a
// torn one; if that truncate fails too, the log refuses every later append.
// Open returns the records up to the first torn or corrupt one. Compact and
// WriteFile replace a file through temp + fsync + rename + directory fsync.
package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// maxRecord bounds one payload. Append rejects larger payloads and a larger
// length prefix reads as corruption rather than being allocated.
const maxRecord = 1 << 24

// Log is an open append-only log. Its methods are safe for concurrent use.
type Log struct {
	path, magic string
	mu          sync.Mutex
	f           file  // nil while appends are refused
	size        int64 // bytes of whole, acknowledged records on disk
	err         error // why appends are refused
}

// Open opens (creating if absent) the log at path and returns it with the
// payloads of its records up to the first torn or corrupt one; a bad tail is
// dropped from disk. A non-empty file that does not begin with magic is an
// error naming the file.
func Open(path, magic string) (*Log, [][]byte, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	payloads, good, err := Decode(data, magic)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %s: %w", path, err)
	}
	l := &Log{path: path, magic: magic, size: int64(good)}
	if good == 0 || good < len(data) { // missing, empty or torn: rewrite what is intact
		err = l.Compact(payloads)
	} else if l.f, err = openAppend(path); err != nil {
		err = fmt.Errorf("durable: %w", err)
	}
	if err != nil {
		return nil, nil, err
	}
	return l, payloads, nil
}

// Decode splits a log image into its record payloads, stopping at the first
// torn or corrupt record; good is the length of the intact prefix (0 for
// empty data). The payloads alias data.
func Decode(data []byte, magic string) (payloads [][]byte, good int, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, 0, fmt.Errorf("bad magic, want %q", magic)
	}
	good = len(magic)
	for b := data[good:]; len(b) > 0; {
		plen, n := binary.Uvarint(b)
		if n <= 0 || plen > maxRecord || uint64(len(b)-n) < plen+4 {
			break
		}
		end := n + int(plen)
		if crc32.ChecksumIEEE(b[n:end]) != binary.LittleEndian.Uint32(b[end:]) {
			break
		}
		payloads = append(payloads, b[n:end])
		b = b[end+4:]
		good += end + 4
	}
	return payloads, good, nil
}

// AppendFrame appends payload to dst as one framed record.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

func frames(dst []byte, payloads [][]byte) ([]byte, error) {
	for _, p := range payloads {
		if len(p) > maxRecord {
			return nil, fmt.Errorf("durable: %d-byte record exceeds %d", len(p), maxRecord)
		}
		dst = AppendFrame(dst, p)
	}
	return dst, nil
}

// Append writes payloads as records with one write and one fsync. On error
// none of them is durable.
func (l *Log) Append(payloads ...[]byte) error {
	buf, err := frames(nil, payloads)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	if _, err = l.f.Write(buf); err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.size += int64(len(buf))
		return nil
	}
	if terr := l.f.Truncate(l.size); terr != nil {
		l.refuse(fmt.Errorf("durable: %s: appends refused after a failed truncate: %w", l.path, terr))
	}
	return fmt.Errorf("durable: append %s: %w", l.path, err)
}

// Compact atomically replaces the log's contents with payloads and reopens
// it for appending. On error the log refuses appends; reopen it to recover.
func (l *Log) Compact(payloads [][]byte) error {
	buf, err := frames([]byte(l.magic), payloads)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refuse(fmt.Errorf("durable: %s: compaction failed, appends refused", l.path))
	if err := WriteFile(l.path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	}); err != nil {
		return err
	}
	f, err := openAppend(l.path)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	l.f, l.size, l.err = f, int64(len(buf)), nil
	return nil
}

// refuse closes the append handle so later appends return err; l.mu held.
func (l *Log) refuse(err error) error {
	var cerr error
	if l.f != nil {
		cerr = l.f.Close()
	}
	l.f, l.err = nil, err
	return cerr
}

// Close closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refuse(fmt.Errorf("durable: %s is closed", l.path))
}

// Remove closes the log and deletes its file.
func (l *Log) Remove() error {
	err := l.Close()
	if rmErr := os.Remove(l.path); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) && err == nil {
		err = rmErr
	}
	return err
}

// WriteFile atomically replaces path with what write produces: a temp file
// in the same directory is written, fsynced and renamed over path, then the
// directory is fsynced. An error before the rename leaves path untouched; no
// error leaves a temp file behind.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := createTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort; err is what the caller needs
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("durable: sync dir of %s: %w", path, err)
	}
	return nil
}

// The file-system seam; tests swap in versions that inject failures. A
// failed open yields a non-nil file holding a nil *os.File, so callers check
// the error first.
var (
	openAppend = func(name string) (file, error) { return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0) }
	createTemp = func(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) }
	rename     = os.Rename
	syncDir    = func(dir string) error { // so a just-renamed entry survives a crash
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
)

type file interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
	Name() string
}
