package experiment

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/perfmodel"
)

// containerHeader is the checkpoint container's header size: the magic,
// the version, the payload length and the payload's CRC.
const containerHeader = len("QSCKPT\n") + 16

// FuzzCheckpointPayload asserts that no checkpoint payload can panic a
// resume before it simulates: arbitrary bytes, wrapped in a container
// with a valid header and checksum, either fail to decode or decode to a
// config that Validate accepts or rejects. A config Validate accepts
// must build its OLTP predictor. A real checkpoint seeds the corpus.
//
// The container is verified and decoded in memory (checkpoint.Decode),
// not through a file, which triples the executions per second. Run it
// with a bounded -fuzzminimizetime (CI uses 100x): the payloads are
// ~4 KB of gob, and the fuzzer's minimization of each input that finds
// new coverage tries byte subsets, quadratic in the input's length, so
// under the default 60 s it takes a 10 s run's whole budget and the run
// fuzzes almost nothing.
func FuzzCheckpointPayload(f *testing.F) {
	dir := f.TempDir()
	RunMixed(ckptTestConfig(dir, 1))
	data, err := os.ReadFile(filepath.Join(dir, checkpoint.FileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[containerHeader:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := make([]byte, containerHeader, containerHeader+len(payload))
		copy(file, "QSCKPT\n")
		hdr := file[len("QSCKPT\n"):]
		binary.BigEndian.PutUint32(hdr[0:4], checkpoint.Version)
		binary.BigEndian.PutUint64(hdr[4:12], uint64(len(payload)))
		binary.BigEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		snap := new(runSnapshot)
		if err := checkpoint.Decode("fuzz payload", append(file, payload...), snap); err != nil {
			return
		}
		cfg := snap.Config
		if cfg.Validate() != nil || cfg.QS == nil {
			return
		}
		if _, _, err := perfmodel.NewOLTP(cfg.QS.OLTP); err != nil {
			t.Fatalf("Validate accepted an OLTP config NewOLTP refuses: %v", err)
		}
	})
}
