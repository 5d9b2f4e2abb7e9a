package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseScenario asserts the scenario parser's contract on arbitrary
// input: an error, or a scenario whose run config passes Validate —
// never a panic. The example scenarios seed the corpus.
func FuzzParseScenario(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios to seed from (err %v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(validScenario))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		if sc == nil {
			t.Fatal("nil scenario with nil error")
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("parsed scenario fails Validate: %v", err)
		}
	})
}
