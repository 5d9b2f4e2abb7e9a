package experiment

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
)

// containerHeader is the checkpoint container's header size: the magic,
// the version, the payload length and the payload's CRC.
const containerHeader = len("QSCKPT\n") + 16

// FuzzCheckpointPayload asserts that no checkpoint payload can panic a
// resume before it simulates: arbitrary bytes, wrapped in a container
// with a valid header and checksum, either fail to decode or decode to a
// config that Validate accepts or rejects. A real checkpoint seeds the
// corpus.
func FuzzCheckpointPayload(f *testing.F) {
	dir := f.TempDir()
	RunMixed(ckptTestConfig(dir, 1))
	data, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[containerHeader:])
	path := filepath.Join(dir, "fuzz.bin")
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := make([]byte, containerHeader, containerHeader+len(payload))
		copy(file, "QSCKPT\n")
		hdr := file[len("QSCKPT\n"):]
		binary.BigEndian.PutUint32(hdr[0:4], checkpoint.Version)
		binary.BigEndian.PutUint64(hdr[4:12], uint64(len(payload)))
		binary.BigEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(path, append(file, payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		snap := new(runSnapshot)
		if err := checkpoint.Read(path, snap); err != nil {
			return
		}
		snap.Config.Validate()
	})
}
