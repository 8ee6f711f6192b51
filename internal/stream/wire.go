package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The binary tuple-batch codec: the one encoding tuples take on the
// wire (publish, ingest, replication and subscription pushes). It is
// row-major and self-describing, so no schema is needed to decode it:
//
//	batch  = count:uvarint tuple*count
//	tuple  = arrival:varint seq:uvarint n:uvarint value*n
//	value  = tag:byte payload
//
// The tag is the value's FieldType (0 = null, no payload). Ints and
// timestamps carry a zigzag varint, bools one byte (0 or 1), doubles
// their 8 IEEE-754 bytes little-endian (so NaN payloads, ±Inf and -0
// round-trip bit-exact), and strings a uvarint length and their raw
// bytes (invalid UTF-8 included). Durable state and control payloads
// keep the JSON form in codec.go.

// errWire is wrapped by every decoding error of the binary codec.
var errWire = errors.New("stream: malformed wire batch")

// minTupleBytes is the smallest encoded tuple: three one-byte varints.
const minTupleBytes = 3

// AppendTuples appends the binary encoding of a batch to b.
func AppendTuples(b []byte, ts []Tuple) []byte {
	if len(ts) > 0 {
		// One growth up front covers batches of numeric values.
		b = slices.Grow(b, len(ts)*(minTupleBytes+4+9*len(ts[0].Values)))
	}
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for i := range ts {
		b = appendTuple(b, &ts[i])
	}
	return b
}

// AppendBinary appends the tuple's binary encoding (one tuple record,
// without a batch count); it never fails. It makes Tuple an
// encoding.BinaryAppender, the protocol's cue to frame it binary.
func (t Tuple) AppendBinary(b []byte) ([]byte, error) {
	return appendTuple(b, &t), nil
}

// UnmarshalBinary decodes one tuple record written by AppendBinary;
// bytes after the record are an error.
func (t *Tuple) UnmarshalBinary(data []byte) error {
	r := NewWireReader(data)
	tu := r.Tuple()
	if err := r.Done(); err != nil {
		return err
	}
	*t = tu
	return nil
}

// AppendWireString appends a length-prefixed string field.
func AppendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendWireBool appends a bool field as one byte.
func AppendWireBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendTuple(b []byte, t *Tuple) []byte {
	b = binary.AppendVarint(b, t.ArrivalMillis)
	b = binary.AppendUvarint(b, t.Seq)
	b = binary.AppendUvarint(b, uint64(len(t.Values)))
	for _, v := range t.Values {
		b = append(b, byte(v.typ))
		switch v.typ {
		case TypeInt, TypeTimestamp:
			b = binary.AppendVarint(b, v.i)
		case TypeBool:
			b = AppendWireBool(b, v.i != 0)
		case TypeDouble:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.f))
		case TypeString:
			b = AppendWireString(b, v.s)
		}
	}
	return b
}

// WireReader decodes the fields of a binary wire message in the order
// they were appended. The first error sticks: later reads return zero
// values, and Done reports it. No read trusts a length or count it has
// not checked against the bytes left.
type WireReader struct {
	b   []byte
	err error
}

// NewWireReader reads the fields of data.
func NewWireReader(data []byte) WireReader { return WireReader{b: data} }

func (r *WireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errWire}, args...)...)
	}
	r.b = nil
}

// Uvarint reads an unsigned varint field.
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bool reads a one-byte bool field.
func (r *WireReader) Bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail("bad bool")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// Str reads a length-prefixed string field.
func (r *WireReader) Str() string {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string length %d exceeds the %d bytes left", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Tuple reads one tuple record.
func (r *WireReader) Tuple() Tuple {
	if r.err != nil {
		return Tuple{}
	}
	var t [1]Tuple
	if !r.tuples(t[:]) {
		return Tuple{}
	}
	return t[0]
}

// Tuples reads a batch: its count, then the tuples. The values of all
// tuples are carved from one backing slice, so a batch decodes in a
// constant number of allocations plus one per non-empty string.
func (r *WireReader) Tuples() []Tuple {
	count := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if count > uint64(len(r.b)/minTupleBytes) {
		r.fail("batch count %d exceeds the %d bytes left", count, len(r.b))
		return nil
	}
	if count == 0 {
		return []Tuple{}
	}
	ts := make([]Tuple, count)
	if !r.tuples(ts) {
		return nil
	}
	return ts
}

// tuples decodes len(ts) tuple records into ts. A first pass validates
// the records and counts their values, so the one value allocation is
// sized by bytes actually present, never by a declared count.
func (r *WireReader) tuples(ts []Tuple) bool {
	nvals, _, err := walkTuples(r.b, ts, nil)
	if err != nil {
		r.fail("%v", err)
		return false
	}
	vals := make([]Value, nvals)
	_, used, _ := walkTuples(r.b, ts, vals)
	r.b = r.b[used:]
	return true
}

// walkTuples parses len(ts) tuple records from the front of b and
// returns their total value count and the bytes they take. With vals
// nil it only validates; otherwise it fills ts, carving each tuple's
// values from vals.
func walkTuples(b []byte, ts []Tuple, vals []Value) (nvals, used int, err error) {
	off, nv := 0, 0
	for i := range ts {
		arrival, k := binary.Varint(b[off:])
		if k <= 0 {
			return 0, 0, fmt.Errorf("tuple %d: bad arrival", i)
		}
		off += k
		seq, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return 0, 0, fmt.Errorf("tuple %d: bad seq", i)
		}
		off += k
		n, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return 0, 0, fmt.Errorf("tuple %d: bad value count", i)
		}
		off += k
		if n > uint64(len(b)-off) { // every value takes at least its tag byte
			return 0, 0, fmt.Errorf("tuple %d: value count %d exceeds the %d bytes left", i, n, len(b)-off)
		}
		var tv []Value
		if vals != nil && n > 0 {
			tv = vals[nv : nv+int(n) : nv+int(n)]
		}
		for j := 0; j < int(n); j++ {
			if off >= len(b) {
				return 0, 0, fmt.Errorf("tuple %d value %d: truncated", i, j)
			}
			v := Value{typ: FieldType(b[off])}
			off++
			switch v.typ {
			case TypeInvalid:
			case TypeInt, TypeTimestamp:
				v.i, k = binary.Varint(b[off:])
				if k <= 0 {
					return 0, 0, fmt.Errorf("tuple %d value %d: bad varint", i, j)
				}
				off += k
			case TypeBool:
				if off >= len(b) || b[off] > 1 {
					return 0, 0, fmt.Errorf("tuple %d value %d: bad bool", i, j)
				}
				v.i = int64(b[off])
				off++
			case TypeDouble:
				if len(b)-off < 8 {
					return 0, 0, fmt.Errorf("tuple %d value %d: truncated double", i, j)
				}
				v.f = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
				off += 8
			case TypeString:
				l, k := binary.Uvarint(b[off:])
				if k <= 0 || l > uint64(len(b)-off-k) {
					return 0, 0, fmt.Errorf("tuple %d value %d: bad string length", i, j)
				}
				off += k
				if tv != nil {
					v.s = string(b[off : off+int(l)])
				}
				off += int(l)
			default:
				return 0, 0, fmt.Errorf("tuple %d value %d: unknown type tag %d", i, j, v.typ)
			}
			if tv != nil {
				tv[j] = v
			}
		}
		if vals != nil {
			ts[i] = Tuple{Values: tv, ArrivalMillis: arrival, Seq: seq}
		}
		nv += int(n)
	}
	return nv, off, nil
}

// Done reports the first decoding error, or an error when bytes are
// left over after the last field.
func (r *WireReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errWire, len(r.b))
	}
	return nil
}
