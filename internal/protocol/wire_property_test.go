package protocol_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dsmsd"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/stream"
)

// randValue draws a value of any type, biased toward the edges the
// binary codec must carry bit-exact.
func randValue(rng *rand.Rand) stream.Value {
	switch rng.Intn(6) {
	case 0:
		return stream.Null
	case 1:
		return stream.IntValue([]int64{0, -1, math.MinInt64, math.MaxInt64, rng.Int63() - rng.Int63()}[rng.Intn(5)])
	case 2:
		return stream.DoubleValue([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
			math.SmallestNonzeroFloat64, math.Float64frombits(rng.Uint64())}[rng.Intn(6)])
	case 3:
		n := []int{0, 1, rng.Intn(40), 5000}[rng.Intn(4)]
		b := make([]byte, n)
		rng.Read(b) // arbitrary bytes: invalid UTF-8 included
		return stream.StringValue(string(b))
	case 4:
		return stream.BoolValue(rng.Intn(2) == 1)
	default:
		return stream.TimestampMillis([]int64{0, -1, -86_400_000, 1_700_000_000_000, rng.Int63() - rng.Int63()}[rng.Intn(5)])
	}
}

func randTuple(rng *rand.Rand) stream.Tuple {
	vals := make([]stream.Value, rng.Intn(9))
	for i := range vals {
		vals[i] = randValue(rng)
	}
	return stream.Tuple{
		Values:        vals,
		ArrivalMillis: []int64{0, -7, 1_700_000_000_000, math.MaxInt64, math.MinInt64}[rng.Intn(5)],
		Seq:           []uint64{0, 1, math.MaxUint64, rng.Uint64()}[rng.Intn(4)],
	}
}

func randBatch(rng *rand.Rand) []stream.Tuple {
	ts := make([]stream.Tuple, []int{0, 1, rng.Intn(64), 300}[rng.Intn(4)])
	for i := range ts {
		ts[i] = randTuple(rng)
	}
	return ts
}

func sameTuple(a, b stream.Tuple) bool {
	if a.ArrivalMillis != b.ArrivalMillis || a.Seq != b.Seq || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		w := b.Values[i]
		if v.Type() != w.Type() || v.Int() != w.Int() || v.Str() != w.Str() ||
			math.Float64bits(v.Double()) != math.Float64bits(w.Double()) {
			return false
		}
	}
	return true
}

func sameBatch(a, b []stream.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameTuple(a[i], b[i]) {
			return false
		}
	}
	return true
}

// roundTrip sends payload through Encode → WriteFrame → ReadFrame →
// Decode[T], the path every wire message takes.
func roundTrip[T any](t *testing.T, typ string, payload any) T {
	t.Helper()
	m, err := protocol.Encode(typ, 9, payload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := protocol.WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := protocol.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != typ || got.ID != 9 || buf.Len() != 0 {
		t.Fatalf("frame header: got type %q id %d, %d bytes left", got.Type, got.ID, buf.Len())
	}
	out, err := protocol.Decode[T](got)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBatchMessagesRoundTripBitExact is the codec's property test:
// random tuples and batches survive every batch-carrying message type
// bit for bit.
func TestBatchMessagesRoundTripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		name := strings.Repeat("s", rng.Intn(3)) + "tream\xff"
		tu := randTuple(rng)
		if got := roundTrip[stream.Tuple](t, server.MsgStreamTuple, tu); !sameTuple(got, tu) {
			t.Fatalf("Tuple: got %#v want %#v", got, tu)
		}
		in := dsmsd.IngestReq{Stream: name, Tuple: tu}
		if got := roundTrip[dsmsd.IngestReq](t, dsmsd.MsgIngest, in); got.Stream != name || !sameTuple(got.Tuple, tu) {
			t.Fatalf("IngestReq: got %#v want %#v", got, in)
		}
		ts := randBatch(rng)
		pub := server.PublishReq{Stream: name, Tuples: ts}
		if got := roundTrip[server.PublishReq](t, server.MsgPublish, pub); got.Stream != name || !sameBatch(got.Tuples, ts) {
			t.Fatalf("PublishReq: batch of %d differs", len(ts))
		}
		ib := dsmsd.IngestBatchReq{Stream: name, Tuples: ts, Prevalidated: rng.Intn(2) == 1}
		if got := roundTrip[dsmsd.IngestBatchReq](t, dsmsd.MsgIngestBatch, ib); got.Stream != name ||
			got.Prevalidated != ib.Prevalidated || !sameBatch(got.Tuples, ts) {
			t.Fatalf("IngestBatchReq: batch of %d differs", len(ts))
		}
		rp := dsmsd.ReplicateReq{Stream: name, Base: rng.Uint64(), Reset: rng.Intn(2) == 1, Tuples: ts}
		if got := roundTrip[dsmsd.ReplicateReq](t, dsmsd.MsgReplicate, rp); got.Stream != name ||
			got.Base != rp.Base || got.Reset != rp.Reset || !sameBatch(got.Tuples, ts) {
			t.Fatalf("ReplicateReq: batch of %d differs", len(ts))
		}
	}
}
