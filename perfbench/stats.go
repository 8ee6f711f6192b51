package main

import (
	"math"
	"sort"
	"time"
)

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timed is one measurement and the time it completed.
type timed struct {
	at time.Time
	v  float64
}

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

// A window is a pass's measured interval [start, start+slice·n), cut
// into n slices of about a second. While the load runs, a sampler
// reads the share of the host's CPU time the hypervisor stole in each
// slice (/proc/stat). The end-to-end figures are medians, over the
// quiet slices, of a per-slice figure. The quiet slices are those
// whose steal is at most the median slice's: a co-tenant of the shared
// host takes the CPU in bursts of a few seconds, and a figure measured
// while it does describes the host, not the program. Slices are chosen
// by the host's steal alone, never by the figures measured in them.
type window struct {
	start time.Time
	slice time.Duration
	steal []float64 // per slice; +Inf until measured
	done  chan struct{}
	fin   chan struct{}
}

// startWindow starts sampling the steal of the window [start, start+d).
// Call stop before reading its figures.
func startWindow(start time.Time, d time.Duration) *window {
	n := max(1, int(d/time.Second))
	w := &window{start: start, slice: d / time.Duration(n), steal: make([]float64, n),
		done: make(chan struct{}), fin: make(chan struct{})}
	for i := range w.steal {
		w.steal[i] = math.Inf(1)
	}
	go w.sample()
	return w
}

func (w *window) sample() {
	defer close(w.fin)
	wait := func(t time.Time) bool {
		timer := time.NewTimer(time.Until(t))
		defer timer.Stop()
		select {
		case <-timer.C:
			return true
		case <-w.done:
			return false
		}
	}
	if !wait(w.start) {
		return
	}
	s0, t0 := cpuTimes()
	for i := range w.steal {
		if !wait(w.start.Add(time.Duration(i+1) * w.slice)) {
			return
		}
		s1, t1 := cpuTimes()
		w.steal[i] = 0
		if t1 > t0 {
			w.steal[i] = float64(s1-s0) / float64(t1-t0)
		}
		s0, t0 = s1, t1
	}
}

// stop waits for the last slice to be measured, or, when the load
// ended early, stops sampling one slice after the window's end.
func (w *window) stop() {
	end := w.start.Add(time.Duration(len(w.steal)) * w.slice)
	select {
	case <-w.fin:
	case <-time.After(time.Until(end) + w.slice):
		close(w.done)
		<-w.fin
	}
}

// quiet reports which slices are quiet: measured, with steal at most
// the median slice's.
func (w *window) quiet() []bool {
	limit := median(w.steal)
	q := make([]bool, len(w.steal))
	for i, s := range w.steal {
		q[i] = s <= limit
	}
	return q
}

// quietSteal is the median steal share over the quiet slices.
func (w *window) quietSteal() float64 {
	var s []float64
	for i, q := range w.quiet() {
		if q {
			s = append(s, w.steal[i])
		}
	}
	return median(s)
}

// slices groups the values completed in the window's quiet slices by
// slice.
func (w *window) slices(xs []timed) [][]timed {
	per := make([][]timed, len(w.steal))
	for _, x := range xs {
		if off := x.at.Sub(w.start); off >= 0 && int(off/w.slice) < len(per) {
			per[off/w.slice] = append(per[off/w.slice], x)
		}
	}
	var out [][]timed
	for i, q := range w.quiet() {
		if q {
			out = append(out, per[i])
		}
	}
	return out
}

// quantile is the median over quiet slices of each slice's q-quantile.
func (w *window) quantile(xs []timed, q float64) float64 {
	var m []float64
	for _, p := range w.slices(xs) {
		if len(p) > 0 {
			m = append(m, quantile(values(p), q))
		}
	}
	return median(m)
}

// rate is the median over quiet slices of each slice's completion
// rate: the values completed after the slice's first completion, per
// second from its first completion to its last (so the rate is not
// rounded to whole batches).
func (w *window) rate(xs []timed) float64 {
	var m []float64
	for _, p := range w.slices(xs) {
		if len(p) < 2 {
			continue
		}
		sort.Slice(p, func(i, j int) bool { return p[i].at.Before(p[j].at) })
		sum := 0.0
		for _, x := range p[1:] {
			sum += x.v
		}
		if secs := p[len(p)-1].at.Sub(p[0].at).Seconds(); secs > 0 {
			m = append(m, sum/secs)
		}
	}
	return median(m)
}
