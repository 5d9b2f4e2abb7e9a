package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/solver"
)

// A run is a pure function of its inputs, its checkpoints included: two
// runs of one configuration write the same checkpoint files byte for
// byte, and the bytes are pinned beside the goldens.
func TestCheckpointsAreByteReproducible(t *testing.T) {
	dirs := [2]string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	for _, dir := range dirs {
		RunMixed(ckptTestConfig(dir, 1))
	}
	var digest bytes.Buffer
	for _, idx := range checkpointIndices(t, dirs[0]) {
		name := checkpoint.FileName(idx)
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two runs of one configuration", name)
		}
		fmt.Fprintf(&digest, "%x  %s\n", sha256.Sum256(a), name)
	}
	if n, m := len(checkpointIndices(t, dirs[0])), len(checkpointIndices(t, dirs[1])); n != m {
		t.Fatalf("runs wrote %d and %d checkpoints", n, m)
	}
	goldenCompare(t, "checkpoint_test.sha256", digest.Bytes())
}

// gob writes a map in Go's randomised iteration order, so a plain map
// anywhere in a checkpoint's payload makes its bytes vary run to run.
// Per-class tables are engine.ClassMap, whose gob encoding is ordered;
// this walk finds any other map a payload field can reach.
func TestCheckpointPayloadHoldsNoPlainMap(t *testing.T) {
	encoder := reflect.TypeOf((*gob.GobEncoder)(nil)).Elem()
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if ty.Implements(encoder) || reflect.PointerTo(ty).Implements(encoder) {
			return // encodes itself
		}
		switch ty.Kind() {
		case reflect.Map:
			t.Errorf("%s is a plain %v", path, ty)
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			if seen[ty] {
				return
			}
			seen[ty] = true
			for i := 0; i < ty.NumField(); i++ {
				if f := ty.Field(i); f.IsExported() {
					walk(f.Type, path+"."+f.Name)
				}
			}
		}
	}
	walk(reflect.TypeOf(runSnapshot{}), "runSnapshot")
	// The concrete types gob may carry in the core.Config.Solver
	// interface field (registered in checkpoint.go).
	walk(reflect.TypeOf(solver.Greedy{}), "solver.Greedy")
	walk(reflect.TypeOf(solver.Grid{}), "solver.Grid")
}
