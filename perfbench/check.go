package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dsms"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// grantView is a consumer's policy-compiled view of a stream: a filter
// and a projection, granted by one policy. keep is the filter written
// again in Go, so the expected output of a run (reference) never passes
// through the program's compiler or engine.
type grantView struct {
	stream, subject string
	schema          *stream.Schema
	filter          string                  // StreamSQL predicate of the policy's filter obligation
	keep            func(stream.Tuple) bool // the same predicate
	project         []string                // fields of the policy's map obligation, in order
	// partition names the output field whose values each keep their
	// own order (the stream's partition key); "" means the whole
	// output is one ordered sequence.
	partition string
}

func (v grantView) policy() *xacml.Policy {
	return xacmlplus.StreamPolicy("perfbench-"+v.stream, v.subject, v.stream, "read",
		xacmlplus.FilterObligation(v.filter), xacmlplus.MapObligation(v.project...))
}

// reference is the view's expected output for the published batches,
// in publish order, with the index of the batch each tuple came from.
func (v grantView) reference(batches [][]stream.Tuple) (out []stream.Tuple, batchOf []int) {
	cols := make([]int, len(v.project))
	for i, name := range v.project {
		cols[i], _, _ = v.schema.Lookup(name)
	}
	for bi, b := range batches {
		for _, t := range b {
			if !v.keep(t) {
				continue
			}
			vals := make([]stream.Value, len(cols))
			for i, c := range cols {
				vals[i] = t.Values[c]
			}
			out = append(out, stream.NewTuple(vals...))
			batchOf = append(batchOf, bi)
		}
	}
	return out, batchOf
}

// checkGrantedSchema fails unless the granted script's output carries
// exactly the view's projected fields, in order.
func (v grantView) checkGrantedSchema(g *dsms.QueryGraph) error {
	out, err := g.Validate(v.schema)
	if err != nil {
		return fmt.Errorf("granted script: %w", err)
	}
	fields := out.Fields()
	if len(fields) != len(v.project) {
		return fmt.Errorf("granted script outputs %d fields, the policy projects %d", len(fields), len(v.project))
	}
	for i, f := range fields {
		if f.Name != v.project[i] {
			return fmt.Errorf("granted script's field %d is %s, the policy projects %s", i, f.Name, v.project[i])
		}
	}
	return nil
}

// grantAndSubscribe loads the view's policy, requests the grant on pub,
// checks the granted script's output schema and subscribes a second
// connection to its handle. It returns the subscriber and the grant
// request's timings.
func grantAndSubscribe(addr string, pub *client.Client, v grantView, rec *collector) (*client.Client, accessSamples, error) {
	var samples accessSamples
	if _, err := pub.LoadPolicyObject(v.policy()); err != nil {
		return nil, samples, fmt.Errorf("load policy: %w", err)
	}
	start := time.Now()
	resp, err := client.ExpectGranted(pub.RequestAccess(v.subject, v.stream, "read", nil))
	if err != nil {
		return nil, samples, err
	}
	samples.add(time.Since(start), resp)
	compiled, err := streamql.CompileString(resp.Script)
	if err != nil {
		return nil, samples, fmt.Errorf("compile granted script: %w", err)
	}
	if err := v.checkGrantedSchema(compiled.Graph); err != nil {
		return nil, samples, err
	}
	sub, err := client.Dial(addr)
	if err != nil {
		return nil, samples, err
	}
	sub.OnTuple = rec.add
	if err := sub.Subscribe(resp.Handle); err != nil {
		sub.Close()
		return nil, samples, fmt.Errorf("subscribe: %w", err)
	}
	return sub, samples, nil
}

// collector records every tuple a subscriber receives, with its
// receipt time.
type collector struct {
	mu     sync.Mutex
	ts     []stream.Tuple
	at     []time.Time
	notify chan struct{} // capacity 1: "something arrived"
}

func newCollector() *collector { return &collector{notify: make(chan struct{}, 1)} }

func (c *collector) add(t stream.Tuple) {
	now := time.Now()
	c.mu.Lock()
	c.ts = append(c.ts, t)
	c.at = append(c.at, now)
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ts)
}

// waitFor blocks until n tuples arrived or none arrived for idle.
func (c *collector) waitFor(n int, idle time.Duration) {
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for c.count() < n {
		select {
		case <-c.notify:
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(idle)
		case <-timer.C:
			return
		}
	}
}

func (c *collector) snapshot() ([]stream.Tuple, []time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]stream.Tuple(nil), c.ts...), append([]time.Time(nil), c.at...)
}

// outputCheck is the comparison of what a subscriber received with the
// reference.
type outputCheck struct {
	expected, matched int
	// bad counts received tuples that are not the next expected one of
	// their sequence: wrong values, repeats, or out of order.
	bad int
	// index[k] is the expected tuple received tuple k matched, or -1.
	index []int
}

func (c outputCheck) missing() int { return c.expected - c.matched }

// checkOutputs requires got to hold exactly exp, each tuple once, in
// order within each value of the view's partition field (or overall,
// without one). Every expected tuple is distinct, so a received tuple
// either is the next expected one of its sequence, skips ahead (the
// skipped ones are missing), or is wrong, repeated or late.
func checkOutputs(v grantView, exp, got []stream.Tuple) outputCheck {
	part := -1
	for i, name := range v.project {
		if name == v.partition {
			part = i
		}
	}
	group := func(t stream.Tuple) string {
		if part < 0 || part >= len(t.Values) {
			return ""
		}
		return tupleKey(stream.NewTuple(t.Values[part]))
	}
	index := make(map[string]int, len(exp))
	for i, t := range exp {
		index[tupleKey(t)] = i
	}
	c := outputCheck{expected: len(exp), index: make([]int, len(got))}
	last := map[string]int{}
	for k, t := range got {
		i, found := index[tupleKey(t)]
		g := group(t)
		if prev, seen := last[g]; !found || (seen && i <= prev) {
			c.bad++
			c.index[k] = -1
			continue
		}
		last[g] = i
		c.matched++
		c.index[k] = i
	}
	return c
}

// tupleKey is a compact exact key of a tuple's values.
func tupleKey(t stream.Tuple) string {
	b := make([]byte, 0, 16*len(t.Values))
	for _, v := range t.Values {
		b = strconv.AppendInt(b, int64(v.Type()), 10)
		b = append(b, ':')
		switch v.Type() {
		case stream.TypeDouble:
			b = strconv.AppendUint(b, math.Float64bits(v.Double()), 16)
		case stream.TypeString:
			b = strconv.AppendQuote(b, v.Str())
		default:
			b = strconv.AppendInt(b, v.Int(), 10)
		}
		b = append(b, ';')
	}
	return string(b)
}

// corruptOne adds 1 to the first double value of the middle tuple of
// ts (tests use it to prove the checks fail a wrong answer).
func corruptOne(ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	t := ts[len(ts)/2].Clone()
	for i, v := range t.Values {
		if v.Type() == stream.TypeDouble {
			t.Values[i] = stream.DoubleValue(v.Double() + 1)
			break
		}
	}
	ts[len(ts)/2] = t
}

// accountingCheck polls the server's runtime stats until every shard
// and the named stream satisfy offered == ingested + dropped + errors
// and the stream counted exactly `offered` tuples, or gives up after a
// few seconds. It returns "" on success, else what did not add up.
func accountingCheck(c *client.Client, streamName string, offered int) string {
	deadline := time.Now().Add(3 * time.Second)
	for {
		problem := accountingProblem(c, streamName, offered)
		if problem == "" || time.Now().After(deadline) {
			return problem
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func accountingProblem(c *client.Client, streamName string, offered int) string {
	st, err := c.RuntimeStats()
	if err != nil {
		return err.Error()
	}
	for _, sh := range st.Shards {
		if sh.Offered != sh.Ingested+sh.Dropped+sh.Errors {
			return fmt.Sprintf("shard %d: offered %d != ingested %d + dropped %d + errors %d",
				sh.Shard, sh.Offered, sh.Ingested, sh.Dropped, sh.Errors)
		}
	}
	for _, s := range st.Streams {
		if s.Stream != streamName {
			continue
		}
		if s.Offered != uint64(offered) {
			return fmt.Sprintf("stream %s: offered %d, published %d", streamName, s.Offered, offered)
		}
		if s.Offered != s.Ingested+s.Dropped+s.Errors {
			return fmt.Sprintf("stream %s: offered %d != ingested %d + dropped %d + errors %d",
				streamName, s.Offered, s.Ingested, s.Dropped, s.Errors)
		}
		return ""
	}
	return fmt.Sprintf("stream %s missing from runtime stats", streamName)
}
