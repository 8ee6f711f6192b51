package dsmsd

import (
	"testing"

	"repro/internal/stream"
)

// wireSeedTuples covers every value type for the fuzz corpora.
var wireSeedTuples = []stream.Tuple{
	stream.NewTuple(stream.IntValue(-1), stream.DoubleValue(2.5), stream.StringValue("s"),
		stream.BoolValue(true), stream.TimestampMillis(9), stream.Null),
	{Seq: 7, ArrivalMillis: 1_700_000_000_000},
}

// checkBound fails when a decode produced more tuples than its bytes
// can encode (three bytes per tuple at least).
func checkBound(t *testing.T, data []byte, ts []stream.Tuple) {
	if 3*len(ts) > len(data) {
		t.Fatalf("%d bytes decoded into %d tuples", len(data), len(ts))
	}
}

func FuzzIngestReqUnmarshalBinary(f *testing.F) {
	seed, _ := IngestReq{Stream: "s", Tuple: wireSeedTuples[0]}.AppendBinary(nil)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req IngestReq
		if req.UnmarshalBinary(data) == nil {
			checkBound(t, data, []stream.Tuple{req.Tuple})
		}
	})
}

func FuzzIngestBatchReqUnmarshalBinary(f *testing.F) {
	seed, _ := IngestBatchReq{Stream: "s", Tuples: wireSeedTuples, Prevalidated: true}.AppendBinary(nil)
	f.Add(seed)
	f.Add([]byte{1, 's', 1, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req IngestBatchReq
		if req.UnmarshalBinary(data) == nil {
			checkBound(t, data, req.Tuples)
		}
	})
}

func FuzzReplicateReqUnmarshalBinary(f *testing.F) {
	seed, _ := ReplicateReq{Stream: "s", Base: 1 << 33, Reset: true, Tuples: wireSeedTuples}.AppendBinary(nil)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ReplicateReq
		if req.UnmarshalBinary(data) == nil {
			checkBound(t, data, req.Tuples)
		}
	})
}
