package colstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// runColumn builds a column out of independently sorted runs, the shape a
// Flood cell layout gives its sort dimension: each run is sorted, and the
// value usually drops between runs. Values stay within a span of 2^width so every
// block's delta width is at most width. It returns the values and the
// [start, end) bounds of each run.
func runColumn(rng *rand.Rand, width uint, n int) ([]int64, [][2]int) {
	lengths := []int{1, 2, 7, BlockSize - 1, BlockSize, BlockSize + 1, 2*BlockSize + 5, 3 * BlockSize}
	base := rng.Int63n(1 << 20)
	draw := func() int64 {
		switch width {
		case 0:
			return base
		case 64:
			return int64(rng.Uint64())
		}
		return base + rng.Int63n(1<<width)
	}
	var vals []int64
	var runs [][2]int
	for len(vals) < n {
		length := lengths[rng.Intn(len(lengths))]
		if rng.Intn(3) == 0 {
			length = 1 + rng.Intn(6*BlockSize)
		}
		run := make([]int64, length)
		// Half of each run's values come from a pool of three, so long
		// stretches of duplicates cross block boundaries.
		pool := []int64{draw(), draw(), draw()}
		for i := range run {
			if rng.Intn(2) == 0 {
				run[i] = pool[rng.Intn(len(pool))]
			} else {
				run[i] = draw()
			}
		}
		slices.Sort(run)
		runs = append(runs, [2]int{len(vals), len(vals) + length})
		vals = append(vals, run...)
	}
	return vals, runs
}

// TestColumnLowerBoundSortedRuns checks LowerBound and LowerBoundHint
// against a linear scan on windows that are sorted only locally: the blocks
// at a window's edges hold rows of neighbouring runs, whose zone maps must
// not steer the search.
func TestColumnLowerBoundSortedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, width := range []uint{0, 8, 16, 17, 32, 64} {
		vals, runs := runColumn(rng, width, 100*BlockSize)
		c := NewColumn(vals)
		sawWidth := false
		for b := range c.widths {
			sawWidth = sawWidth || uint(c.widths[b]) == width
		}
		if !sawWidth {
			t.Fatalf("width %d: no block of that delta width; widths %v", width, c.widths)
		}
		n := len(vals)
		check := func(start, end int, v int64) {
			t.Helper()
			want := start
			for want < end && vals[want] < v {
				want++
			}
			if got := c.LowerBound(start, end, v); got != want {
				t.Fatalf("width %d: LowerBound(%d, %d, %d) = %d, want %d", width, start, end, v, got, want)
			}
			hints := []int{start, end, want, (start + end) / 2, start - 1, end + 1,
				-3 * BlockSize, n + 5*BlockSize, math.MinInt32, math.MaxInt32, rng.Intn(n)}
			for _, hint := range hints {
				if got := c.LowerBoundHint(start, end, hint, v); got != want {
					t.Fatalf("width %d: LowerBoundHint(%d, %d, hint=%d, %d) = %d, want %d",
						width, start, end, hint, v, got, want)
				}
			}
		}
		for _, r := range runs {
			windows := [][2]int{r}
			if r[1]-r[0] > 1 { // a sub-window of a run is sorted too
				lo := r[0] + rng.Intn(r[1]-r[0])
				windows = append(windows, [2]int{lo, lo + rng.Intn(r[1]-lo+1)})
			}
			for _, w := range windows {
				start, end := w[0], w[1]
				targets := []int64{math.MinInt64, math.MaxInt64}
				if start < end {
					lo, hi := vals[start], vals[end-1]
					targets = append(targets, lo, hi, vals[start+rng.Intn(end-start)])
					if lo > math.MinInt64 {
						targets = append(targets, lo-1)
					}
					if hi < math.MaxInt64 {
						targets = append(targets, hi+1)
					}
					for k := 0; k < 4; k++ {
						x := vals[start+rng.Intn(end-start)]
						if x < math.MaxInt64 {
							x++
						}
						targets = append(targets, x)
					}
				}
				for _, v := range targets {
					check(start, end, v)
				}
			}
		}
	}
}

type lowerBoundProbe struct {
	start, end, hint int
	v                int64
}

// lowerBoundFixture is a 1M-row column of 256 sorted cells of 4096 rows,
// plus cell-local probes whose hint is off by up to ±512 rows, as a learned
// model's prediction would be.
func lowerBoundFixture() (*Column, []lowerBoundProbe) {
	const cell = 4096
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
	}
	for s := 0; s < len(vals); s += cell {
		slices.Sort(vals[s : s+cell])
	}
	probes := make([]lowerBoundProbe, 1024)
	for i := range probes {
		start := rng.Intn(len(vals)/cell) * cell
		end := start + cell
		v := rng.Int63n(1 << 30)
		want := start
		for want < end && vals[want] < v {
			want++
		}
		probes[i] = lowerBoundProbe{start: start, end: end, hint: want + rng.Intn(1025) - 512, v: v}
	}
	return NewColumn(vals), probes
}

var lowerBoundSink int

func BenchmarkColumnLowerBound(b *testing.B) {
	c, probes := lowerBoundFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &probes[i&(len(probes)-1)]
		lowerBoundSink += c.LowerBound(p.start, p.end, p.v)
	}
}

func BenchmarkColumnLowerBoundHint(b *testing.B) {
	c, probes := lowerBoundFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &probes[i&(len(probes)-1)]
		lowerBoundSink += c.LowerBoundHint(p.start, p.end, p.hint, p.v)
	}
}

// TestColumnLowerBoundZeroAlloc gates refinement's searches at zero heap
// allocations per call.
func TestColumnLowerBoundZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c, probes := lowerBoundFixture()
	p := probes[0]
	if n := testing.AllocsPerRun(100, func() { lowerBoundSink += c.LowerBound(p.start, p.end, p.v) }); n != 0 {
		t.Fatalf("LowerBound: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { lowerBoundSink += c.LowerBoundHint(p.start, p.end, p.hint, p.v) }); n != 0 {
		t.Fatalf("LowerBoundHint: %v allocs/op, want 0", n)
	}
}
