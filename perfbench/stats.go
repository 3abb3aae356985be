package main

import (
	"math"
	"sort"
	"time"
)

// samples collects latencies in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// quantile returns the nearest-rank q-quantile (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// median of a small set of floats.
func median(v []float64) float64 { return samples(v).quantile(0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows collects a phase's requests by window and reports medians over
// windows, so that one stall (a collection, a neighbour taking the CPU)
// does not decide a run's figure.
type windows struct {
	bucket []samples
	starts [][]time.Time
}

func newWindows(n int) *windows {
	return &windows{bucket: make([]samples, n), starts: make([][]time.Time, n)}
}

// add files a request that started at start and took lat under window i.
func (ws *windows) add(i int, start time.Time, lat time.Duration) {
	ws.bucket[i].add(lat)
	ws.starts[i] = append(ws.starts[i], start)
}

// quantile is the median over windows of the per-window q-quantile.
func (ws *windows) quantile(q float64) float64 { return median(ws.perWindow(q)) }

// perWindow returns each non-empty window's q-quantile, in window order.
func (ws *windows) perWindow(q float64) []float64 {
	var per []float64
	for _, b := range ws.bucket {
		if len(b) > 0 {
			per = append(per, b.quantile(q))
		}
	}
	return per
}

// rate is the median over windows of requests started per second, each
// window's rate taken between its first and last start.
func (ws *windows) rate() float64 { return median(ws.rates()) }

func (ws *windows) rates() []float64 {
	per := make([]float64, len(ws.starts))
	for i, starts := range ws.starts {
		if len(starts) < 2 {
			continue
		}
		lo, hi := starts[0], starts[0]
		for _, s := range starts {
			if s.Before(lo) {
				lo = s
			}
			if s.After(hi) {
				hi = s
			}
		}
		per[i] = float64(len(starts)-1) / hi.Sub(lo).Seconds()
	}
	return per
}

// overall is the q-quantile of every request of the phase together.
func (ws *windows) overall(q float64) float64 {
	var all samples
	for _, b := range ws.bucket {
		all = append(all, b...)
	}
	return all.quantile(q)
}

// minCount is the fewest requests in any window.
func (ws *windows) minCount() int {
	m := len(ws.bucket[0])
	for _, b := range ws.bucket {
		m = min(m, len(b))
	}
	return m
}
