// Package checkpoint writes and reads crash-consistent snapshot files.
//
// A checkpoint file is a small binary container:
//
//	magic   "QSCKPT\n" (7 bytes)
//	version uint32 (big-endian)
//	length  uint64 (big-endian) — payload byte count
//	crc32   uint32 (big-endian, Castagnoli) — checksum of the payload
//	payload gob-encoded snapshot
//
// Writes are atomic: the container is written to a temp file in the
// target directory, fsynced, renamed over the final name, and the
// directory fsynced — a crash at any instant leaves either the previous
// complete file set or the new one, never a torn file under a final
// name. Reads verify the magic, version, length, and checksum; Latest
// skips corrupt files with a warning instead of failing, so a run
// resumes from the newest checkpoint that survived the crash, and
// rejects files of another format version outright.
//
// The package is deliberately ignorant of what a snapshot contains: the
// payload is an opaque value the caller registers with encoding/gob.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Version identifies the container format together with the payload
// layout its callers encode. Version 5 records a run by its
// configuration, a boundary, the export offsets and a state digest, and
// the run is resumed by re-simulating to that boundary; versions 1–4
// stored every component's state. Files of earlier versions are
// rejected, not migrated.
const Version = 5

// versionError reports a checkpoint written in another format version.
type versionError struct {
	Path    string
	Version uint32
}

func (e *versionError) Error() string {
	return fmt.Sprintf("checkpoint: %s: unsupported version %d (this build reads version %d)", e.Path, e.Version, Version)
}

var magic = []byte("QSCKPT\n")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileName returns the canonical checkpoint file name for a boundary
// index. Names embed the index zero-padded so lexicographic and numeric
// order agree.
func FileName(index int) string {
	return fmt.Sprintf("ckpt-%08d.bin", index)
}

// parseIndex extracts the boundary index from a canonical file name.
func parseIndex(name string) (int, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".bin") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".bin"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Write atomically writes a checkpoint for the given boundary index into
// dir, creating the directory if needed. payload is gob-encoded; the
// caller must use a concrete type registered consistently between writer
// and reader.
func Write(dir string, index int, payload any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(magic)
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:4], Version)
	binary.BigEndian.PutUint64(hdr[4:12], uint64(body.Len()))
	binary.BigEndian.PutUint32(hdr[12:16], crc32.Checksum(body.Bytes(), castagnoli))
	buf.Write(hdr[:])
	buf.Write(body.Bytes())

	final := filepath.Join(dir, FileName(index))
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort: persist the rename itself
		d.Close()
	}
	return nil
}

// Read opens and verifies one checkpoint file, decoding its payload into
// out (a pointer to the registered concrete type).
func Read(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if len(data) < len(magic)+16 {
		return fmt.Errorf("checkpoint: %s: truncated header", path)
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return fmt.Errorf("checkpoint: %s: bad magic", path)
	}
	hdr := data[len(magic) : len(magic)+16]
	if v := binary.BigEndian.Uint32(hdr[0:4]); v != Version {
		return &versionError{Path: path, Version: v}
	}
	payload := data[len(magic)+16:]
	if want := binary.BigEndian.Uint64(hdr[4:12]); uint64(len(payload)) != want {
		return fmt.Errorf("checkpoint: %s: payload is %d bytes, header says %d", path, len(payload), want)
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.BigEndian.Uint32(hdr[12:16]) {
		return fmt.Errorf("checkpoint: %s: checksum mismatch", path)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return fmt.Errorf("checkpoint: %s: decode: %w", path, err)
	}
	return nil
}

// Latest finds the newest valid checkpoint in dir, decoding it into out
// and returning its boundary index. Files that fail verification are
// skipped with a warning on warnw (stderr in the CLIs) — a torn or
// corrupt newest file falls back to the one before it. A file in
// another format version is an error, not corruption: the older files
// beside it come from the same build. ok is false when no valid
// checkpoint exists.
func Latest(dir string, out any, warnw io.Writer) (index int, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, false, fmt.Errorf("checkpoint: %w", err)
	}
	var indices []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, valid := parseIndex(e.Name()); valid {
			indices = append(indices, n)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(indices)))
	for _, n := range indices {
		path := filepath.Join(dir, FileName(n))
		if rerr := Read(path, out); rerr != nil {
			var verr *versionError
			if errors.As(rerr, &verr) {
				return 0, false, rerr
			}
			if warnw != nil {
				fmt.Fprintf(warnw, "warning: skipping %v\n", rerr)
			}
			continue
		}
		return n, true, nil
	}
	return 0, false, nil
}
