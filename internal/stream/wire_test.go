package stream

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestWireRejectsMalformed pins the refusals: truncated counts, counts
// larger than the bytes left, unknown tags and trailing bytes are
// errors, never panics or oversized allocations.
func TestWireRejectsMalformed(t *testing.T) {
	good := AppendTuples(nil, []Tuple{NewTuple(IntValue(7), StringValue("ab"), DoubleValue(1.5))})
	uv := func(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
	cases := map[string][]byte{
		"empty":                {},
		"truncated count":      {0x80},
		"count beyond bytes":   uv(nil, 1<<40),
		"count of 2, 1 tuple":  append([]byte{2}, good[1:]...),
		"truncated tuple":      good[:len(good)-3],
		"value count too big":  {1, 0, 0, 0x7f},
		"unknown tag":          {1, 0, 0, 1, 9},
		"bad bool":             {1, 0, 0, 1, byte(TypeBool), 2},
		"truncated double":     {1, 0, 0, 1, byte(TypeDouble), 1, 2, 3},
		"string beyond bytes":  {1, 0, 0, 1, byte(TypeString), 5, 'a'},
		"string length varint": {1, 0, 0, 1, byte(TypeString), 0xff},
		"trailing bytes":       append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		r := NewWireReader(data)
		ts := r.Tuples()
		if err := r.Done(); err == nil {
			t.Errorf("%s: decoded %v without error", name, ts)
		}
	}
	var tu Tuple
	if err := tu.UnmarshalBinary(append(tupleBytes(NewTuple(IntValue(1))), 0)); err == nil {
		t.Error("UnmarshalBinary accepted trailing bytes")
	}
}

func tupleBytes(t Tuple) []byte {
	b, _ := t.AppendBinary(nil)
	return b
}

// checkDecodeBound fails when a decode produced more tuples or values
// than the bytes it was given can encode.
func checkDecodeBound(t *testing.T, data []byte, ts []Tuple) {
	vals := 0
	for _, tu := range ts {
		vals += len(tu.Values)
	}
	if len(ts)*minTupleBytes > len(data) || vals > len(data) {
		t.Fatalf("%d bytes decoded into %d tuples / %d values", len(data), len(ts), vals)
	}
}

func FuzzWireTuples(f *testing.F) {
	f.Add(AppendTuples(nil, []Tuple{NewTuple(IntValue(-3), StringValue("s"), BoolValue(true), Null, TimestampMillis(9), DoubleValue(2))}))
	f.Add([]byte{3, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewWireReader(data)
		ts := r.Tuples()
		if r.Done() != nil {
			return
		}
		checkDecodeBound(t, data, ts)
		// A batch that decodes re-encodes to the same bytes, except that
		// a varint spelled with redundant continuation bytes (0x80 0x00
		// is 0) re-encodes shorter.
		if got := AppendTuples(nil, ts); len(got) == len(data) && string(got) != string(data) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", data, got)
		}
	})
}

func FuzzTupleUnmarshalBinary(f *testing.F) {
	f.Add(tupleBytes(NewTuple(StringValue("\xff"), DoubleValue(math.NaN()))))
	f.Add([]byte{0, 0, 1, byte(TypeString), 0x80, 0x80, 0x80, 0x80, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tu Tuple
		if tu.UnmarshalBinary(data) != nil {
			return
		}
		checkDecodeBound(t, data, []Tuple{tu})
	})
}
