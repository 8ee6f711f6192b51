package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/workload"
)

// accessSamples are per-request access figures, in µs: the server's
// phase times from the AccessResp wire fields and what the client's
// round trip adds to them.
type accessSamples struct {
	// overhead is rtt minus the three phases: decode, encode, XML
	// parsing and the wire.
	overhead []float64
	requests int
	reused   int
}

func (a *accessSamples) add(rtt time.Duration, resp server.AccessResp) {
	a.requests++
	phases := resp.PDPNanos + resp.GraphNanos + resp.EngineNanos
	a.overhead = append(a.overhead, micros(rtt-time.Duration(phases)))
	if resp.Reused {
		a.reused++
	}
}

func (a accessSamples) reuseFrac() float64 { return float64(a.reused) / float64(max(a.requests, 1)) }

type accessSession struct {
	cfg config
	sut *sutProc
	c   *client.Client
	w   *workload.Workload
	seq []int
}

// openAccess uploads the Table 3 policies over the wire (set-up).
func openAccess(cfg config, sut *sutProc) (session, error) {
	w, err := workload.Generate(accessParams(cfg.seed))
	if err != nil {
		return nil, err
	}
	c, err := client.Dial(sut.addr)
	if err != nil {
		return nil, err
	}
	for i, doc := range w.PolicyXML {
		if _, err := c.LoadPolicy([]byte(doc)); err != nil {
			c.Close()
			return nil, fmt.Errorf("load policy %d: %w", i, err)
		}
	}
	seq := w.ZipfSequence(w.Params.NRequests, w.Params.Seed+1)
	return &accessSession{cfg: cfg, sut: sut, c: c, w: w, seq: seq}, nil
}

func (s *accessSession) close() { s.c.Close() }

// run replays the Zipf request sequence in a closed loop for d,
// cycling through it as often as time allows. Every updateEvery-th
// operation instead re-uploads the policy of a seeded pick from the
// sequence, which withdraws that policy's live grants. A request must
// be granted, and reuse an existing grant exactly when the same item
// was granted before and its policy was not re-uploaded since.
func (s *accessSession) run(d time.Duration) (passResult, error) {
	cfg := s.cfg
	res := passResult{valid: true}
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	live := map[int]bool{}    // items holding a grant
	var updates, rtts []timed // ms, at completion
	var acc accessSamples
	cursor := 0
	u0, err := s.sut.mark()
	if err != nil {
		return res, err
	}
	start := time.Now()
	win := startWindow(start, d)
	for op, end := 1, start.Add(d); time.Now().Before(end); op++ {
		res.attempted++
		if op%updateEvery == 0 {
			pol := s.w.Items[s.seq[rng.Intn(len(s.seq))]].PolicyIndex
			t := time.Now()
			_, err := s.c.LoadPolicy([]byte(s.w.PolicyXML[pol]))
			now := time.Now()
			updates = append(updates, timed{now, millis(now.Sub(t))})
			if err != nil {
				res.fail(1, "policy update: "+err.Error())
			}
			for idx := range live {
				if s.w.Items[idx].PolicyIndex == pol {
					delete(live, idx)
				}
			}
			continue
		}
		item := s.w.Items[s.seq[cursor%len(s.seq)]]
		cursor++
		t := time.Now()
		resp, err := s.c.RequestAccessXML(item.RequestXML, item.UserQueryXML)
		now := time.Now()
		rtt := now.Sub(t)
		if err != nil {
			res.fail(1, "access: "+err.Error())
			continue
		}
		acc.add(rtt, resp)
		rtts = append(rtts, timed{now, millis(rtt)})
		wantReused := live[item.Index]
		if cfg.corrupt && cursor == len(s.seq)/2 {
			wantReused = !wantReused
		}
		switch {
		case !resp.Granted():
			res.fail(1, fmt.Sprintf("access not granted: decision=%s verdict=%s", resp.Decision, resp.Verdict))
		case resp.Reused != wantReused:
			res.fail(1, fmt.Sprintf("item %d: reused=%v, the live-grant model expects %v", item.Index, resp.Reused, wantReused))
		default:
			live[item.Index] = true
		}
	}
	win.stop()
	u1, err := s.sut.mark()
	if err != nil {
		return res, err
	}
	used := u1.since(u0)
	res.cpuPerOp = micros(used.cpu) / float64(max(1, res.attempted))
	res.allocPerOp = float64(used.alloc) / float64(max(1, res.attempted))

	res.access = acc
	ops := append(append([]timed(nil), rtts...), updates...)
	for i := range ops {
		ops[i].v = 1
	}
	res.throughput = win.rate(ops)
	res.latP50 = win.quantile(rtts, 0.5)
	res.writeP50 = win.quantile(updates, 0.5)
	rtt, upd := values(rtts), values(updates)
	res.named = []namedValue{
		{"quiet_steal_frac", win.quietSteal(), "ratio"},
		{"latency_p90_ms", win.quantile(rtts, 0.9), "ms"},
		{"latency_p99_ms", quantile(rtt, 0.99), "ms"},
		{"write_p99_ms", quantile(upd, 0.99), "ms"},
		{"requests", float64(acc.requests), "count"},
		{"policy_updates", float64(len(updates)), "count"},
		{"reuse_frac", acc.reuseFrac(), "ratio"},
		{"sequence_passes", float64(cursor) / float64(len(s.seq)), "count"},
		{"server_alloc_bytes_per_op", res.allocPerOp, "B"},
	}
	return res, nil
}
