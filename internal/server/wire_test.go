package server_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// TestPublishNonFiniteAndNonUTF8EndToEnd publishes NaN, ±Inf, -0 and a
// non-UTF-8 string over TCP and checks that a granted subscriber
// receives them bit-exact and keeps receiving the tuples after them.
// JSON could carry none of them: the encode error closed the feed.
func TestPublishNonFiniteAndNonUTF8EndToEnd(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "n", Type: stream.TypeInt},
		stream.Field{Name: "x", Type: stream.TypeDouble},
		stream.Field{Name: "label", Type: stream.TypeString},
	)
	addr, fw := startShardedServer(t, 2)
	pub, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := fw.RegisterStream("odd", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.LoadPolicyObject(xacml.NewPermitPolicy("odd:reader",
		xacml.NewTarget("reader", "odd", "read"),
		xacml.Obligation{
			ObligationID: xacmlplus.ObligationFilter,
			FulfillOn:    xacml.EffectPermit,
			Assignments:  []xacml.AttributeAssignment{xacml.NewStringAssignment(xacmlplus.AttrFilterCondition, "n >= 0")},
		})); err != nil {
		t.Fatal(err)
	}
	resp, err := client.ExpectGranted(pub.RequestAccess("reader", "odd", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := make(chan stream.Tuple, 16)
	sub.OnTuple = func(tu stream.Tuple) { got <- tu }
	if err := sub.Subscribe(resp.Handle); err != nil {
		t.Fatal(err)
	}

	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	var want []stream.Tuple
	for i, x := range odd {
		want = append(want, stream.NewTuple(stream.IntValue(int64(i)), stream.DoubleValue(x), stream.StringValue("bad\xff\xfeutf8")))
	}
	for i := len(odd); i < len(odd)+3; i++ {
		want = append(want, stream.NewTuple(stream.IntValue(int64(i)), stream.DoubleValue(1.5), stream.StringValue("fine")))
	}
	// The odd values go first, in a batch of their own; the plain
	// tuples after them must still arrive.
	for _, batch := range [][]stream.Tuple{want[:len(odd)], want[len(odd):]} {
		if n, err := pub.PublishBatch("odd", batch); err != nil || n != len(batch) {
			t.Fatalf("PublishBatch: n=%d err=%v", n, err)
		}
	}
	fw.Flush()
	for i, w := range want {
		select {
		case tu := <-got:
			if len(tu.Values) != 3 || tu.Values[0].Int() != w.Values[0].Int() ||
				math.Float64bits(tu.Values[1].Double()) != math.Float64bits(w.Values[1].Double()) ||
				tu.Values[2].Str() != w.Values[2].Str() {
				t.Fatalf("tuple %d: got %v want %v", i, tu, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d tuples: the feed stopped", i, len(want))
		}
	}
}

// gpsBatch is a 256-tuple batch of 64 interleaved GPS tracks, the
// shape the ingest benchmark publishes.
func gpsBatch(n int) []stream.Tuple {
	devs := make([]*source.GPSTracker, 64)
	for d := range devs {
		devs[d] = source.NewGPSTracker(fmt.Sprintf("dev%03d", d), 1.35, 103.82, 1_700_000_000_000, 1000, int64(d))
	}
	ts := make([]stream.Tuple, n)
	for i := range ts {
		ts[i] = devs[i%len(devs)].Next()
	}
	return ts
}

func publishFrame(tb testing.TB, ts []stream.Tuple) []byte {
	m, err := protocol.Encode(server.MsgPublish, 1, server.PublishReq{Stream: "gps", Tuples: ts})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := protocol.WriteFrame(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func decodePublishFrame(tb testing.TB, frame []byte) server.PublishReq {
	m, err := protocol.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		tb.Fatal(err)
	}
	req, err := protocol.Decode[server.PublishReq](m)
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

// BenchmarkPublishFrameRoundTrip frames a 256-tuple GPS batch as the
// client publishes it and parses it as the server does.
func BenchmarkPublishFrameRoundTrip(b *testing.B) {
	ts := gpsBatch(256)
	frame := publishFrame(b, ts)
	b.ReportAllocs()
	for b.Loop() {
		if req := decodePublishFrame(b, publishFrame(b, ts)); len(req.Tuples) != len(ts) {
			b.Fatalf("decoded %d of %d tuples", len(req.Tuples), len(ts))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ts)), "ns/tuple")
	b.ReportMetric(float64(len(frame))/float64(len(ts)), "B/tuple")
}

// TestPublishFrameDecodeAllocs guards the decoder's allocation shape:
// the same constant per batch, whatever its size, plus one per string
// value. JSON decoding spent ~52 allocations per tuple.
func TestPublishFrameDecodeAllocs(t *testing.T) {
	const perBatch = 9 // reader, prefix, body, message, type, request, name, tuples, values
	for _, n := range []int{1, 64, 256} {
		frame := publishFrame(t, gpsBatch(n))
		allocs := testing.AllocsPerRun(20, func() { decodePublishFrame(t, frame) })
		strs := n // one deviceid per GPS tuple
		if extra := int(allocs) - strs; extra > perBatch {
			t.Errorf("decoding a %d-tuple batch: %.0f allocs, want %d strings + at most %d per batch", n, allocs, strs, perBatch)
		}
	}
}

func FuzzPublishReqUnmarshalBinary(f *testing.F) {
	seed, _ := server.PublishReq{Stream: "gps", Tuples: gpsBatch(3)}.AppendBinary(nil)
	f.Add(seed)
	f.Add([]byte{3, 'g', 'p', 's', 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req server.PublishReq
		if req.UnmarshalBinary(data) != nil {
			return
		}
		if len(req.Stream)+3*len(req.Tuples) > len(data) {
			t.Fatalf("%d bytes decoded into %d tuples", len(data), len(req.Tuples))
		}
	})
}
