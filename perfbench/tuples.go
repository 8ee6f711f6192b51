package main

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/stream"
)

// tupleSession is a publisher and one granted subscriber attached to a
// running server: the ingest and deliver workloads.
type tupleSession struct {
	cfg      config
	view     grantView
	sut      *sutProc
	pub, sub *client.Client
	rec      *collector
	grant    accessSamples
}

func openTuples(cfg config, sut *sutProc, v grantView) (*tupleSession, error) {
	pub, err := client.Dial(sut.addr)
	if err != nil {
		return nil, err
	}
	s := &tupleSession{cfg: cfg, view: v, sut: sut, pub: pub, rec: newCollector()}
	s.sub, s.grant, err = grantAndSubscribe(sut.addr, pub, v, s.rec)
	if err != nil {
		pub.Close()
		return nil, err
	}
	return s, nil
}

func (s *tupleSession) close() {
	s.sub.Close()
	s.pub.Close()
}

// loadLog is what a load loop published and when.
type loadLog struct {
	batches [][]stream.Tuple
	// from[i] is when batch i's latency starts: its send (closed
	// loop) or its due time (open loop).
	from []time.Time
	rtts []timed // publish round trips in ms, at the ack
	acks []timed // tuples accepted, at the ack
	res  passResult
}

// publish sends one batch and logs it as an attempted operation that
// fails unless the server accepted every tuple.
func (s *tupleSession) publish(l *loadLog, b []stream.Tuple, from time.Time) error {
	sent := time.Now()
	v, err := s.pub.PublishBatchVerdict(s.view.stream, b)
	now := time.Now()
	l.batches = append(l.batches, b)
	l.from = append(l.from, from)
	l.rtts = append(l.rtts, timed{now, millis(now.Sub(sent))})
	l.acks = append(l.acks, timed{now, float64(v.Accepted)})
	l.res.attempted++
	if err != nil {
		l.res.fail(1, "publish: "+err.Error())
		return err
	}
	if v.Accepted != len(b) {
		l.res.fail(1, fmt.Sprintf("publish: server accepted %d of %d tuples", v.Accepted, len(b)))
	}
	return nil
}

func (l *loadLog) tuples() int {
	n := 0
	for _, b := range l.batches {
		n += len(b)
	}
	return n
}

// outputs is the checked output of a tuple session's load.
type outputs struct {
	lat       []timed // ms from the source batch's start to receipt, at receipt
	delivered []timed // 1 per verified tuple, at receipt
	keepFrac  float64 // share of published tuples the view keeps
}

// finish waits for the subscriber to receive the load's output, then
// checks it against the view's reference: every expected tuple exactly
// once and in order (see checkOutputs), the server's accounting for
// the stream, and no tuple shed for a lagging subscriber. Each check
// counts in l.res.
func (s *tupleSession) finish(l *loadLog) (outputs, error) {
	res := &l.res
	exp, batchOf := s.view.reference(l.batches)
	s.rec.waitFor(len(exp), 5*time.Second)
	got, at := s.rec.snapshot()
	// The subscriber is done: close it so the generator never holds
	// more than two connections, /metrics included.
	s.sub.Close()
	if s.cfg.corrupt {
		corruptOne(exp)
	}

	chk := checkOutputs(s.view, exp, got)
	res.attempted += len(exp) + chk.bad
	if chk.bad > 0 {
		res.fail(chk.bad, fmt.Sprintf("%d received tuples were wrong, repeated or out of order", chk.bad))
	}
	if chk.missing() > 0 {
		res.fail(chk.missing(), fmt.Sprintf("received %d of %d expected tuples", chk.matched, len(exp)))
	}
	var out outputs
	for k, i := range chk.index {
		if i < 0 {
			continue
		}
		out.lat = append(out.lat, timed{at[k], millis(at[k].Sub(l.from[batchOf[i]]))})
		out.delivered = append(out.delivered, timed{at[k], 1})
	}
	out.keepFrac = float64(len(exp)) / float64(max(1, l.tuples()))

	res.attempted++
	if p := accountingCheck(s.pub, s.view.stream, l.tuples()); p != "" {
		res.fail(1, "accounting: "+p)
	}
	res.attempted++
	dropped, err := s.sut.subDropped()
	switch {
	case err != nil:
		return out, fmt.Errorf("subscriber drops: %w", err)
	case dropped > 0:
		res.fail(1, fmt.Sprintf("the server shed %v output tuples for a lagging subscriber", dropped))
	}
	return out, nil
}

// summarize checks a load's outputs and fills in the pass's figures.
// byDelivery picks the throughput: verified tuples delivered (open
// loop) rather than tuples accepted (closed loop).
func (s *tupleSession) summarize(l *loadLog, win *window, u0 usage, byDelivery bool) (passResult, error) {
	win.stop()
	u1, err := s.sut.mark()
	if err != nil {
		return l.res, err
	}
	used := u1.since(u0)
	tuples := l.tuples()
	out, err := s.finish(l)
	if err != nil {
		return l.res, err
	}
	res := l.res
	res.cpuPerOp = micros(used.cpu) / float64(max(1, tuples))
	res.allocPerOp = float64(used.alloc) / float64(max(1, tuples))
	res.throughput = win.rate(l.acks)
	if byDelivery {
		res.throughput = win.rate(out.delivered)
	}
	res.latP50 = win.quantile(out.lat, 0.5)
	res.writeP50 = win.quantile(l.rtts, 0.5)
	rtt, lat := values(l.rtts), values(out.lat)
	res.publishP50 = 1e3 * median(rtt)
	res.named = append(res.named,
		namedValue{"quiet_steal_frac", win.quietSteal(), "ratio"},
		namedValue{"latency_p90_ms", win.quantile(out.lat, 0.9), "ms"},
		namedValue{"latency_p99_ms", quantile(lat, 0.99), "ms"},
		namedValue{"write_p99_ms", quantile(rtt, 0.99), "ms"},
		namedValue{"tuples_published", float64(tuples), "count"},
		namedValue{"tuples_delivered", float64(len(out.delivered)), "count"},
		namedValue{"filter_keep_frac", out.keepFrac, "ratio"},
		namedValue{"server_alloc_bytes_per_tuple", res.allocPerOp, "B"},
	)
	return res, nil
}
