package main

import (
	"fmt"
	"time"

	"repro/internal/source"
	"repro/internal/stream"
)

// feedStartMillis is the first sample time of every generated feed.
const feedStartMillis = 1_700_000_000_000

// gpsFeed interleaves the tracks of gpsDevices GPS trackers: tuple i
// of the stream comes from device i mod gpsDevices.
type gpsFeed struct {
	devs []*source.GPSTracker
	next int
}

func newGPSFeed(cfg config) *gpsFeed {
	f := &gpsFeed{}
	for d := 0; d < gpsDevices; d++ {
		f.devs = append(f.devs, source.NewGPSTracker(fmt.Sprintf("dev%03d", d),
			1.35+0.001*float64(d), 103.82, feedStartMillis, 1000, cfg.seed*1000+int64(d)))
	}
	return f
}

func (f *gpsFeed) batch(n int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		out[i] = f.devs[f.next].Next()
		f.next = (f.next + 1) % len(f.devs)
	}
	return out
}

// gpsBatches returns the first n ingest batches of the feed cfg seeds.
func gpsBatches(cfg config, n int) [][]stream.Tuple {
	f := newGPSFeed(cfg)
	out := make([][]stream.Tuple, n)
	for i := range out {
		out[i] = f.batch(ingestBatch)
	}
	return out
}

// speedingView grants an analyst the GPS points faster than 80 km/h,
// projected to when, who and how fast (about one tuple in ten).
func speedingView() grantView {
	schema := source.GPSSchema()
	speed, _, _ := schema.Lookup("speed")
	return grantView{
		stream: "gps", subject: "analyst", schema: schema,
		filter:    "speed > 80",
		keep:      func(t stream.Tuple) bool { return t.Values[speed].Double() > 80 },
		project:   []string{"samplingtime", "deviceid", "speed"},
		partition: "deviceid",
	}
}

type ingestSession struct{ *tupleSession }

func openIngest(cfg config, sut *sutProc) (session, error) {
	s, err := openTuples(cfg, sut, speedingView())
	if err != nil {
		return nil, err
	}
	return ingestSession{s}, nil
}

// run publishes seeded 256-tuple batches in a closed loop for d, then
// checks the subscriber's output. A tuple's latency runs from the send
// of its batch to the receipt of its output.
func (s ingestSession) run(d time.Duration) (passResult, error) {
	l := &loadLog{res: passResult{valid: true, access: s.grant}}
	feed := newGPSFeed(s.cfg)
	u0, err := s.sut.mark()
	if err != nil {
		return l.res, err
	}
	start := time.Now()
	win := startWindow(start, d)
	for end := start.Add(d); time.Now().Before(end); {
		if err := s.publish(l, feed.batch(ingestBatch), time.Now()); err != nil {
			break
		}
	}
	return s.summarize(l, win, u0, false)
}
