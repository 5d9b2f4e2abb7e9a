package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string
	Ticks []float64
	Index int
}

func samplePayload(i int) payload {
	return payload{Name: "run", Ticks: []float64{1.5, 2.25, 3}, Index: i}
}

func TestWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	want := samplePayload(7)
	if err := Write(dir, 7, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := Read(filepath.Join(dir, FileName(7)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Index != want.Index || len(got.Ticks) != len(want.Ticks) {
		t.Fatalf("roundtrip mismatch: %+v != %+v", got, want)
	}
}

func TestWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, 1, samplePayload(1)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName(1) {
		t.Fatalf("directory not clean after write: %v", entries)
	}
}

// corruptAt rewrites one checkpoint file through fn.
func corruptAt(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, 3, samplePayload(3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName(3))

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		wantErr string
	}{
		{"truncated header", func(d []byte) []byte { return d[:5] }, "truncated header"},
		{"bad magic", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[0] = 'X'
			return out
		}, "bad magic"},
		{"future version", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			binary.BigEndian.PutUint32(out[len(magic):], Version+1)
			return out
		}, "unsupported version"},
		{"version 1", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			binary.BigEndian.PutUint32(out[len(magic):], 1)
			return out
		}, "unsupported version 1"},
		{"short payload", func(d []byte) []byte { return d[:len(d)-3] }, "header says"},
		{"flipped payload byte", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)-1] ^= 0xff
			return out
		}, "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Write(dir, 3, samplePayload(3)); err != nil {
				t.Fatal(err)
			}
			corruptAt(t, path, tc.corrupt)
			var got payload
			err := Read(path, &got)
			if err == nil {
				t.Fatal("corrupt file accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// A directory written by a build with the version-1 snapshot layout is
// an error that names the version, not a run of corrupt files to skip.
func TestLatestRejectsVersion1(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 2; i++ {
		if err := Write(dir, i, samplePayload(i)); err != nil {
			t.Fatal(err)
		}
		corruptAt(t, filepath.Join(dir, FileName(i)), func(d []byte) []byte {
			binary.BigEndian.PutUint32(d[len(magic):], 1)
			return d
		})
	}
	var got payload
	_, ok, err := Latest(dir, &got, nil)
	if ok || err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("Latest over version-1 files = ok %v, err %v; want an error naming version 1", ok, err)
	}
}

func TestLatestSkipsCorruptAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		if err := Write(dir, i, samplePayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest file mid-payload, as a crash during a non-atomic
	// write would have.
	corruptAt(t, filepath.Join(dir, FileName(3)), func(d []byte) []byte { return d[:len(d)-2] })

	var got payload
	var warn bytes.Buffer
	idx, ok, err := Latest(dir, &got, &warn)
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if idx != 2 || got.Index != 2 {
		t.Fatalf("resumed from %d (payload %d), want 2", idx, got.Index)
	}
	if !strings.Contains(warn.String(), "skipping") {
		t.Errorf("no warning for the corrupt file: %q", warn.String())
	}
}

// TestLatestSkipsTruncatedMidPayload pins the crash shape a torn write
// leaves behind: the newest file cut off partway through its payload
// (header intact, length field promising more bytes than exist). Latest
// must warn, skip it, and hand back the older valid snapshot.
func TestLatestSkipsTruncatedMidPayload(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 2; i++ {
		if err := Write(dir, i, samplePayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, FileName(2))
	corruptAt(t, path, func(d []byte) []byte {
		cut := len(magic) + 16 + (len(d)-len(magic)-16)/2
		return d[:cut]
	})

	var got payload
	var warn bytes.Buffer
	idx, ok, err := Latest(dir, &got, &warn)
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if idx != 1 || got.Index != 1 {
		t.Fatalf("resumed from %d (payload %d), want 1", idx, got.Index)
	}
	if !strings.Contains(warn.String(), "skipping") || !strings.Contains(warn.String(), FileName(2)) {
		t.Errorf("warning should name the truncated file: %q", warn.String())
	}
}

func TestLatestEmptyDir(t *testing.T) {
	var got payload
	if _, ok, err := Latest(t.TempDir(), &got, nil); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if _, _, err := Latest(filepath.Join(t.TempDir(), "missing"), &got, nil); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestFileNameOrdering(t *testing.T) {
	if FileName(9) >= FileName(10) || FileName(99) >= FileName(100) {
		t.Fatal("file names do not sort numerically")
	}
	for name, want := range map[string]int{"ckpt-00000042.bin": 42, "ckpt-0.bin": 0} {
		if n, ok := parseIndex(name); !ok || n != want {
			t.Errorf("parseIndex(%q) = %d, %v", name, n, ok)
		}
	}
	for _, name := range []string{"ckpt-.bin", "ckpt--1.bin", "other.bin", "ckpt-1.txt", ".ckpt-1.bin.tmp"} {
		if _, ok := parseIndex(name); ok {
			t.Errorf("parseIndex accepted %q", name)
		}
	}
}
