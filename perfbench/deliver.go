package main

import (
	"fmt"
	"time"

	"repro/internal/source"
	"repro/internal/stream"
)

// weatherIntervalMillis is the generated weather feed's sample period.
const weatherIntervalMillis = 1000

// maxLateMillis is how late (at p99) the deliver scheduler may hand
// batches to the sender before the run is marked invalid. Timer
// wake-ups alone ran up to ~16 ms late at p99 on the 2-CPU VM the
// benchmark was defined on when the hypervisor stole a third of the
// CPU; a scheduler that falls behind its schedule runs later and later,
// far past this.
const maxLateMillis = 25

func newWeatherFeed(cfg config) *source.WeatherStation {
	return source.NewWeatherStation(feedStartMillis, weatherIntervalMillis, cfg.seed)
}

// weatherBatches returns the first n deliver batches of the feed cfg
// seeds.
func weatherBatches(cfg config, n int) [][]stream.Tuple {
	f := newWeatherFeed(cfg)
	out := make([][]stream.Tuple, n)
	for i := range out {
		out[i] = f.Take(deliverBatch)
	}
	return out
}

// calmView grants a consumer almost every weather tuple (the filter
// drops only storm-force wind) projected to 3 of its 8 fields.
func calmView() grantView {
	schema := source.WeatherSchema()
	wind, _, _ := schema.Lookup("windspeed")
	return grantView{
		stream: "weather", subject: "lta", schema: schema,
		filter:  "windspeed < 30",
		keep:    func(t stream.Tuple) bool { return t.Values[wind].Double() < 30 },
		project: []string{"samplingtime", "temperature", "windspeed"},
	}
}

type deliverSession struct{ *tupleSession }

func openDeliver(cfg config, sut *sutProc) (session, error) {
	s, err := openTuples(cfg, sut, calmView())
	if err != nil {
		return nil, err
	}
	return deliverSession{s}, nil
}

// run publishes deliverBatch-tuple batches on a fixed schedule for d
// (an open loop: batch i is due at start + i·interval however slow the
// server is), then checks the subscriber's output. A tuple's latency
// runs from its batch's due time to its receipt, so a slow server's
// backlog counts against it.
func (s deliverSession) run(d time.Duration) (passResult, error) {
	cfg := s.cfg
	interval := time.Duration(float64(time.Second) * float64(deliverBatch) / deliverRate)
	n := int(d / interval)
	l := &loadLog{res: passResult{access: s.grant}}
	u0, err := s.sut.mark()
	if err != nil {
		return l.res, err
	}
	start := time.Now().Add(interval)
	win := startWindow(start, d)

	// The scheduler hands each batch to the sender when it is due and
	// never waits for the server; the sender publishes them in order
	// on the one connection (a publish is a round trip, and order must
	// hold). The queue holds every batch of the run, so the scheduler
	// cannot block on it.
	type due struct {
		at time.Time
		b  []stream.Tuple
	}
	queue := make(chan due, n)
	var sendLates []float64 // ms the sender started after the due time
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		var err error
		for q := range queue {
			if err != nil { // the connection failed: the rest fail too
				l.res.attempted++
				l.res.failed++
				continue
			}
			sendLates = append(sendLates, millis(time.Since(q.at)))
			err = s.publish(l, q.b, q.at)
		}
	}()
	feed := newWeatherFeed(cfg)
	lates := make([]float64, 0, n) // ms the scheduler handed a batch over after its due time
	for i := 0; i < n; i++ {
		b := feed.Take(deliverBatch)
		at := start.Add(time.Duration(i) * interval)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lates = append(lates, millis(time.Since(at)))
		queue <- due{at, b}
	}
	close(queue)
	<-sent
	res, err := s.summarize(l, win, u0, true)
	if err != nil {
		return res, err
	}

	// The generator fell behind its schedule when its scheduler handed
	// batches over more than maxLateMillis late at the 99th percentile.
	// (A sender waiting on slow round trips is part of the server's
	// latency, measured from the due time; a late scheduler is the
	// generator's own stall.)
	lateP99, lateMax := quantile(lates, 0.99), quantile(lates, 1)
	res.valid = lateP99 <= maxLateMillis
	if !res.valid {
		res.notes = append(res.notes, fmt.Sprintf("INVALID: the generator fell behind its schedule: %.3f ms late at p99 (limit %d ms)", lateP99, maxLateMillis))
	}
	res.named = append(res.named,
		namedValue{"offered_tuples_per_s", deliverRate, "1/s"},
		namedValue{"gen_late_p99_ms", lateP99, "ms"},
		namedValue{"gen_late_max_ms", lateMax, "ms"},
		namedValue{"send_late_p99_ms", quantile(sendLates, 0.99), "ms"},
		namedValue{"send_late_max_ms", quantile(sendLates, 1), "ms"},
	)
	return res, nil
}
