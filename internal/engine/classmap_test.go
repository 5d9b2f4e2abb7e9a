package engine

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"slices"
	"testing"
)

func TestClassMapIDsAscend(t *testing.T) {
	m := ClassMap[int]{9: 1, -2: 3, 5: 0, 1: 7}
	if got, want := m.IDs(), []ClassID{-2, 1, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	if ids := ClassMap[float64](nil).IDs(); len(ids) != 0 {
		t.Fatalf("nil map IDs = %v", ids)
	}
}

// Equal maps encode to equal bytes, whatever the order they were built
// in, and decode back to the same entries.
func TestClassMapGobIsOrderedAndRoundTrips(t *testing.T) {
	type holder struct {
		Rates ClassMap[float64]
		Per   []ClassMap[int]
	}
	encode := func(h holder) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var first []byte
	for i := 0; i < 20; i++ {
		h := holder{Rates: ClassMap[float64]{}, Per: []ClassMap[int]{{}, {}}}
		for id := ClassID(0); id < 12; id++ {
			id := (id*7 + ClassID(i)) % 12 // a different insertion order per pass
			h.Rates[id] = float64(id) / 4
			h.Per[int(id)%2][id] = int(id) * 3
		}
		b := encode(h)
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("pass %d encodes differently from pass 0", i)
		}
		var back holder
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, h) {
			t.Fatalf("round trip = %+v, want %+v", back, h)
		}
	}
}
