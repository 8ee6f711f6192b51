package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/stream"
)

// startShardedStack brings up an embedded sharded framework whose
// server exposes the publish path, and returns a connected client.
func startShardedStack(t *testing.T, shards int) (*client.Client, *core.Framework) {
	t.Helper()
	addr, fw := startShardedServer(t, shards)
	cli, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli, fw
}

// startShardedServer brings up an embedded sharded framework behind a
// data server with the publish path and returns the server's address.
func startShardedServer(t *testing.T, shards int) (string, *core.Framework) {
	t.Helper()
	fw := core.NewWithOptions("cloud", core.Options{Shards: shards, Policy: runtime.Block})
	t.Cleanup(fw.Close)
	if err := fw.RegisterStream("weather", weatherSchema()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(fw.PEP, nil)
	srv.AttachPublisher(fw.Runtime)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr, fw
}

// TestServerPublishPath drives the full TCP loop: load a policy, get a
// grant, publish batches over the wire, and observe the filtered output
// plus the runtime accounting.
func TestServerPublishPath(t *testing.T) {
	cli, fw := startShardedStack(t, 2)
	if _, err := cli.LoadPolicyObject(neaPolicy()); err != nil {
		t.Fatal(err)
	}
	resp, err := client.ExpectGranted(cli.RequestAccess("LTA", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := fw.Subscribe(resp.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const batches = 10
	const batchSize = 32
	passing := 0
	buf := make([]stream.Tuple, batchSize)
	for b := 0; b < batches; b++ {
		for i := range buf {
			rain := float64((b*batchSize + i) % 11)
			if rain > 5 {
				passing++
			}
			buf[i] = stream.NewTuple(
				stream.TimestampMillis(int64(b*batchSize+i)*1000),
				stream.DoubleValue(rain),
				stream.DoubleValue(3.0),
			)
		}
		n, err := cli.PublishBatch("weather", buf)
		if err != nil || n != batchSize {
			t.Fatalf("PublishBatch: n=%d err=%v", n, err)
		}
	}
	fw.Flush()

	got := 0
	for len(sub.C) > 0 {
		tu := <-sub.C
		if len(tu.Values) != 2 || tu.Values[1].Double() <= 5 {
			t.Fatalf("bad output tuple %v", tu)
		}
		got++
	}
	if got != passing {
		t.Fatalf("delivered %d tuples, want %d", got, passing)
	}

	st, err := cli.RuntimeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("stats cover %d shards, want 2", len(st.Shards))
	}
	total := st.Total()
	if total.Ingested != batches*batchSize || total.Dropped != 0 {
		t.Fatalf("runtime stats = %+v", total)
	}

	// Schema violations surface to the wire caller.
	if _, err := cli.PublishBatch("weather", []stream.Tuple{stream.NewTuple(stream.StringValue("x"))}); err == nil {
		t.Fatal("invalid tuple must fail over the wire")
	}
}

// TestServerSubscribePath checks that a consumer can attach to a
// granted handle over TCP when the server runs an embedded runtime.
func TestServerSubscribePath(t *testing.T) {
	cli, fw := startShardedStack(t, 2)
	if _, err := cli.LoadPolicyObject(neaPolicy()); err != nil {
		t.Fatal(err)
	}
	resp, err := client.ExpectGranted(cli.RequestAccess("LTA", "weather", "read", nil))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan stream.Tuple, 64)
	cli.OnTuple = func(tu stream.Tuple) { got <- tu }
	if err := cli.Subscribe(resp.Handle); err != nil {
		t.Fatal(err)
	}
	if err := cli.Subscribe("bogus-handle"); err == nil {
		t.Fatal("subscribing to an unknown handle must fail")
	}

	const n = 10
	for i := 0; i < n; i++ {
		if err := fw.Publish("weather", stream.NewTuple(
			stream.TimestampMillis(int64(i)*1000),
			stream.DoubleValue(9), // passes the rainrate > 5 filter
			stream.DoubleValue(1),
		)); err != nil {
			t.Fatal(err)
		}
	}
	fw.Flush()
	for i := 0; i < n; i++ {
		select {
		case tu := <-got:
			if len(tu.Values) != 2 || tu.Values[1].Double() != 9 {
				t.Fatalf("bad pushed tuple %v", tu)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d pushed tuples", i, n)
		}
	}
}

// TestServerPublishQuotaVerdict checks that remote publishers see the
// admission verdict: a quota'd stream sheds the excess of a batch and
// the shed count travels back over the wire.
func TestServerPublishQuotaVerdict(t *testing.T) {
	fw := core.NewWithOptions("cloud", core.Options{Shards: 1})
	t.Cleanup(fw.Close)
	// A near-zero refill rate makes the bucket a fixed budget of 5.
	if err := fw.RegisterStream("weather", weatherSchema(),
		runtime.WithClass(runtime.BestEffort), runtime.WithQuota(1e-9, 5)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(fw.PEP, nil)
	srv.AttachPublisher(fw.Runtime)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	batch := make([]stream.Tuple, 8)
	for i := range batch {
		batch[i] = stream.NewTuple(
			stream.TimestampMillis(int64(i)*1000),
			stream.DoubleValue(1),
			stream.DoubleValue(2),
		)
	}
	v, err := cli.PublishBatchVerdict("weather", batch)
	if err != nil {
		t.Fatal(err)
	}
	if v.Offered != 8 || v.Accepted != 5 || v.Shed != 3 {
		t.Fatalf("wire verdict = %+v, want offered 8, accepted 5, shed 3", v)
	}
	fw.Flush()
	st, err := cli.RuntimeStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Streams) != 1 || st.Streams[0].Class != "besteffort" || st.Streams[0].Shed != 3 {
		t.Fatalf("remote stream stats = %+v", st.Streams)
	}
}

// TestServerPublishWithoutRuntime checks the classic deployment still
// rejects the publish path cleanly.
func TestServerPublishWithoutRuntime(t *testing.T) {
	cli, _ := startStack(t)
	if _, err := cli.PublishBatch("weather", nil); err == nil {
		t.Fatal("publish without an attached runtime must fail")
	}
	if _, err := cli.RuntimeStats(); err == nil {
		t.Fatal("runtime stats without an attached runtime must fail")
	}
}
