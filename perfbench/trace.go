package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one (-1 for a
// root). Times are nanoseconds since the tracer started.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer keeps spans in memory and writes them out when the run ends. An
// inactive tracer records nothing and costs one atomic load per call. A
// traced run toggles it between blocks of work so the same run measures
// the tracing overhead.
type tracer struct {
	on     bool // the run is traced
	active atomic.Bool
	t0     time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	t.active.Store(on)
	return t
}

// setActive switches recording on or off within a traced run.
func (t *tracer) setActive(b bool) { t.active.Store(t.on && b) }

// add records a finished span and returns its id (-1 when tracing is off).
func (t *tracer) add(name string, start, end time.Time, parent int32, req int64) int32 {
	if !t.active.Load() {
		return -1
	}
	s := span{name: name, start: start.Sub(t.t0).Nanoseconds(), end: end.Sub(t.t0).Nanoseconds(), parent: parent, req: req}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// addDur records a span of duration d starting at start.
func (t *tracer) addDur(name string, start time.Time, d time.Duration, parent int32, req int64) int32 {
	return t.add(name, start, start.Add(d), parent, req)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as one tab-separated line each, after a header
// carrying the environment stamp, and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64, stamp []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# env %s\n# id\tname\tstart_ns\tend_ns\tparent\treq\n", stamp)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.req)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns one line per span name: count, mean duration and mean
// self time, where a span's self time is its duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			p := t.spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if hi > lo {
				child[s.parent] += hi - lo
			}
		}
	}
	type agg struct {
		n         int64
		dur, self int64
	}
	by := map[string]*agg{}
	for i, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.dur += s.end - s.start
		a.self += max(s.end-s.start-child[i], 0)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("%-28s %10s %14s %14s", "span", "count", "mean_us", "self_mean_us")}
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("%-28s %10d %14.2f %14.2f", n, a.n,
			float64(a.dur)/float64(a.n)/1e3, float64(a.self)/float64(a.n)/1e3))
	}
	return out
}
