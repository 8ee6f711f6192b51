package main

import (
	"fmt"
	"time"
)

// passOpts varies how a pass launches the server.
type passOpts struct {
	// traced wraps the server's runtime and engine in timing wrappers
	// (sut.go) and samples its queue depth.
	traced bool
	// singleCore runs the server at GOMAXPROCS=1.
	singleCore bool
}

// passResult is one pass: cfg.setups server launches, the last of
// which carries the workload for cfg.run.
type passResult struct {
	setupS    []float64
	attempted int
	failed    int
	// valid is false when the load generator could not hold its
	// schedule (deliver), so the latencies do not describe the server.
	valid bool
	rssMB float64

	// The workload's headline figures (what each means per workload is
	// in NOTES.md), as medians over the pass's one-second slices.
	throughput float64
	latP50     float64
	writeP50   float64
	// cpuPerOp is the CPU time server and generator used per operation
	// while the load ran, in µs.
	cpuPerOp float64
	// allocPerOp is the heap bytes the server allocated per operation
	// while the load ran.
	allocPerOp float64
	// publishP50 is the median publish round trip in µs (0 when the
	// workload publishes nothing).
	publishP50 float64

	named  []namedValue
	notes  []string
	sut    sutReport     // the loaded server's shutdown report
	access accessSamples // wire phase times of the pass's access requests
}

func (p passResult) okFrac() float64 {
	if p.attempted == 0 {
		return 0
	}
	return 1 - float64(p.failed)/float64(p.attempted)
}

func (p passResult) correct() bool { return p.failed == 0 && p.valid && p.attempted > 0 }

// fail counts one failed check and keeps the first few distinct notes.
func (p *passResult) fail(n int, note string) {
	p.failed += n
	if note == "" || len(p.notes) >= 8 {
		return
	}
	for _, m := range p.notes {
		if m == note {
			return
		}
	}
	p.notes = append(p.notes, note)
}

// session is one workload attached to a running server: opening it is
// the client half of set-up (policies loaded, grants held, subscriber
// attached); run applies the load and checks the outputs.
type session interface {
	// run applies the load for d and checks its outputs.
	run(d time.Duration) (passResult, error)
	close()
}

func openSession(cfg config, wl string, sut *sutProc) (session, error) {
	switch wl {
	case wlIngest:
		return openIngest(cfg, sut)
	case wlDeliver:
		return openDeliver(cfg, sut)
	case wlAccess:
		return openAccess(cfg, sut)
	}
	return nil, fmt.Errorf("unknown workload %q", wl)
}

// runPass launches the server cfg.setups times, timing each launch
// through the end of the client set-up, and runs workload wl on the
// last one.
func runPass(cfg config, wl string, opts passOpts) (passResult, error) {
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		sut, err := startSUT(cfg, wl, opts)
		if err != nil {
			return passResult{}, err
		}
		sess, err := openSession(cfg, wl, sut)
		if err != nil {
			sut.kill()
			return passResult{}, fmt.Errorf("%s set-up: %w", wl, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			sess.close()
			if _, err := sut.stop(); err != nil {
				return passResult{}, err
			}
			continue
		}
		res, err := sess.run(cfg.run)
		sess.close()
		if err != nil {
			sut.kill()
			return passResult{}, fmt.Errorf("%s: %w", wl, err)
		}
		rep, err := sut.stop()
		if err != nil {
			return passResult{}, err
		}
		res.setupS = setups
		res.sut = rep
		res.rssMB = float64(rep.PeakRSSKB) / 1024
		return res, nil
	}
	return passResult{}, fmt.Errorf("no set-ups configured")
}
