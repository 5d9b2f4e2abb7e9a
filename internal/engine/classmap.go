package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ClassMap is a per-class table: a schedule period's client counts, a
// fault plan's per-class rates, a backend's routing affinity. It is a
// plain map for building and lookup; what it adds is an order. IDs walks
// the classes in ascending ID order, and the gob encoding writes the
// entries as ascending (ID, value) pairs, where gob would write a plain
// map in Go's randomised iteration order and no two checkpoints of one
// run would share their bytes.
type ClassMap[V int | float64] map[ClassID]V

// IDs returns the map's class IDs in ascending order.
func (m ClassMap[V]) IDs() []ClassID {
	ids := make([]ClassID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Dense returns the map as a table indexed by class ID, one entry past
// the largest listed ID, with fill where the map lists no value. It
// panics on a negative class ID, which has no index.
func (m ClassMap[V]) Dense(fill V) []V {
	n := 0
	for id := range m {
		if id < 0 {
			panic(fmt.Sprintf("engine: negative class %d in a per-class table", id))
		}
		n = max(n, int(id)+1)
	}
	out := make([]V, n)
	for i := range out {
		out[i] = fill
	}
	for id, v := range m {
		out[id] = v
	}
	return out
}

// GobEncode writes the entries in ascending class-ID order, each as
// the class ID and the value (a float64 by its IEEE 754 bits) in varint
// form.
func (m ClassMap[V]) GobEncode() ([]byte, error) {
	var b []byte
	for _, id := range m.IDs() {
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendUvarint(b, valueBits(m[id]))
	}
	return b, nil
}

// GobDecode reads what GobEncode wrote.
func (m *ClassMap[V]) GobDecode(b []byte) error {
	*m = make(ClassMap[V])
	for len(b) > 0 {
		id, n := binary.Varint(b)
		if n <= 0 {
			return errors.New("engine: corrupt ClassMap encoding")
		}
		v, k := binary.Uvarint(b[n:])
		if k <= 0 {
			return errors.New("engine: corrupt ClassMap encoding")
		}
		(*m)[ClassID(id)] = valueFromBits[V](v)
		b = b[n+k:]
	}
	return nil
}

func valueBits[V int | float64](v V) uint64 {
	if f, ok := any(v).(float64); ok {
		return math.Float64bits(f)
	}
	return uint64(any(v).(int))
}

func valueFromBits[V int | float64](u uint64) V {
	var v V
	switch p := any(&v).(type) {
	case *float64:
		*p = math.Float64frombits(u)
	case *int:
		*p = int(u)
	}
	return v
}
