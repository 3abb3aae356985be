package main

import (
	"fmt"
	"runtime"
	"time"

	"flood"
	"flood/datagen"
)

const (
	olapRows    = 1_000_000
	olapQueries = 2000
)

// runOLAP is the paper's Fig. 7 TPC-H standard workload (six templates,
// ~0.1% selectivity, COUNT and SUM) in a closed loop with one client,
// calling Flood.Execute directly on a 1M-row index built with a pinned
// layout. Only internal/core does work here.
func runOLAP(cfg *config) (*result, error) {
	res := newResult()
	var (
		ds    *datagen.Dataset
		f     *flood.Flood
		setup []float64
		build []float64
	)
	var heapBefore float64
	for i := 0; i < setupRepeats; i++ {
		ds, f = nil, nil
		runtime.GC()
		t0 := time.Now()
		ds = datagen.TPCH(olapRows, cfg.seed)
		t1 := time.Now()
		if i == setupRepeats-1 { // untimed: the heap holding the generated data
			heapBefore = liveHeap()
		}
		t1b := time.Now()
		var err error
		f, err = flood.BuildWithLayout(ds.Table, pinnedTPCH.layout, nil)
		if err != nil {
			return nil, fmt.Errorf("building pinned layout: %w", err)
		}
		f.Table().EnableAggregate(tpchSumCol)
		t2 := time.Now()
		setup = append(setup, (t1.Sub(t0) + t2.Sub(t1b)).Seconds())
		build = append(build, t2.Sub(t1b).Seconds())
		root := cfg.tr.add("bench.setup", t0, t2, -1, 0)
		cfg.tr.add("datagen.TPCH", t0, t1, root, 0)
		cfg.tr.add("flood.BuildWithLayout", t1b, t2, root, 0)
	}
	res.e2e["setup_s"] = median(setup)
	res.layer["core.build_s"] = median(build)
	res.e2e["heap_bytes_per_row"] = (liveHeap() - heapBefore) / olapRows
	res.note("setup_s samples %v", setup)

	qs := datagen.StandardWorkload(ds, olapQueries, cfg.seed+1)
	want := expected(newOracle(ds.Cols), qs, olapAgg)

	// Warm-up pass, outside the timed region: one execution per query.
	// Its counts depend only on the layout and the queries, so they repeat
	// exactly for a seed.
	var first flood.Stats
	for i, q := range qs {
		st := f.Execute(q, olapAgg(i).aggregator())
		first.Add(st)
	}
	nq := float64(len(qs))
	res.layer["core.cells_per_query"] = float64(first.CellsVisited) / nq
	res.layer["core.ranges_per_query"] = float64(first.ScanRanges) / nq
	res.layer["core.refined_per_query"] = float64(first.RangesRefined) / nq
	res.layer["core.scanned_per_match"] = ratio(float64(first.Scanned), float64(first.Matched))
	res.note("pinned layout %s (scan overhead %.2f when learned; %.3f on this run's queries)",
		pinnedTPCH.layout, pinnedTPCH.so, res.layer["core.scanned_per_match"])

	phase := time.Duration(cfg.seconds * float64(time.Second))
	var (
		lat           samples
		traced, plain samples
		sum           flood.Stats
		n             int
		aggs          = make([]flood.Aggregator, len(qs))
	)
	for i := range qs {
		aggs[i] = olapAgg(i).aggregator()
	}
	start := time.Now()
	deadline := start.Add(phase)
	var cycles []time.Duration // wall time of each full pass over qs
	cycleStart := start
	for i := 0; ; i++ {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if cfg.trace {
			cfg.tr.setActive(now.Sub(start)/traceBlock%2 == 0)
		}
		id := i % len(qs)
		agg := aggs[id]
		agg.Reset()
		t0 := time.Now()
		st := f.Execute(qs[id], agg)
		t1 := time.Now()
		res.attempted++
		if agg.Result() != want[id].value || st.Matched != want[id].matched {
			res.failed++
			res.wrong++
		}
		d := t1.Sub(t0)
		lat.add(d)
		sum.Add(st)
		n++
		if id == len(qs)-1 {
			cycles = append(cycles, time.Since(cycleStart))
			cycleStart = time.Now()
		}
		if cfg.trace {
			root := cfg.tr.add("bench.query", now, time.Now(), -1, int64(i))
			if root >= 0 {
				ex := cfg.tr.add("flood.Execute", t0, t1, root, int64(i))
				addCoreSpans(cfg.tr, t0, st, ex, int64(i))
			}
			// The whole iteration, span recording included, so the
			// traced half pays for the tracing.
			if iter := time.Since(now); root >= 0 {
				traced.add(iter)
			} else {
				plain.add(iter)
			}
		}
	}
	elapsed := time.Since(start)
	cfg.tr.setActive(true)

	// Each full pass over the query list is one window: it holds every
	// query once, so windows differ only in how fast the host ran them,
	// and the median over passes keeps a slow stretch from deciding the
	// run.
	var p50s, p90s, rates []float64
	for c, d := range cycles {
		pass := lat[c*len(qs) : (c+1)*len(qs)]
		p50s = append(p50s, pass.quantile(0.5))
		p90s = append(p90s, pass.quantile(0.9))
		rates = append(rates, float64(len(qs))/d.Seconds())
	}
	if len(cycles) == 0 { // too short a run for one pass
		p50s, p90s, rates = []float64{lat.quantile(0.5)}, []float64{lat.quantile(0.9)}, []float64{float64(n) / elapsed.Seconds()}
	}
	res.e2e["p50_us"] = median(p50s)
	res.e2e["p90_us"] = median(p90s)
	res.e2e["qps"] = median(rates)
	res.layer["bench.p99_us"] = lat.quantile(0.99)
	res.note("%d queries in %v (closed loop, 1 client); p50, p90 and qps are medians over %d passes of the %d-query list",
		n, elapsed, len(cycles), len(qs))
	k := float64(n)
	res.layer["core.project_us_mean"] = float64(sum.ProjectTime.Nanoseconds()) / k / 1e3
	res.layer["core.refine_us_mean"] = float64(sum.RefineTime.Nanoseconds()) / k / 1e3
	res.layer["core.scan_us_mean"] = float64(sum.ScanTime.Nanoseconds()) / k / 1e3
	res.layer["core.ns_per_scanned_row"] = ratio(float64(sum.ScanTime.Nanoseconds()), float64(sum.Scanned))
	if cfg.trace {
		res.layer["trace.overhead_pct"] = overheadPct(traced, plain)
		if err := learnPhase(cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tpchSumCol is extendedprice, the column the SUM queries aggregate.
const tpchSumCol = 3

// olapAgg alternates COUNT(*) and SUM(extendedprice) over the query list.
func olapAgg(i int) aggregate {
	if i%2 == 0 {
		return aggregate{col: -1}
	}
	return aggregate{col: tpchSumCol}
}

// answer is an expected (value, matched rows) pair.
type answer struct{ value, matched int64 }

// expected computes every query's answer with the oracle.
func expected(o *oracle, qs []flood.Query, agg func(int) aggregate) []answer {
	out := make([]answer, len(qs))
	for i, q := range qs {
		out[i].value, out[i].matched = o.answer(q, agg(i))
	}
	return out
}

// addCoreSpans places Execute's projection, refinement and scan phases, as
// Stats reports their durations, back to back from the call's start.
func addCoreSpans(tr *tracer, t0 time.Time, st flood.Stats, parent int32, req int64) {
	if parent < 0 {
		return
	}
	tr.addDur("core.project", t0, st.ProjectTime, parent, req)
	tr.addDur("core.refine", t0.Add(st.ProjectTime), st.RefineTime, parent, req)
	tr.addDur("core.scan", t0.Add(st.IndexTime), st.ScanTime, parent, req)
}

// liveHeap is the live heap in bytes after a full collection. Set-up reads
// it with the generated data alone and again with the index built, so
// heap_bytes_per_row counts the index, not the benchmark's inputs.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// overheadPct compares the mean time per request, span recording included,
// with tracing on against tracing off.
func overheadPct(traced, plain samples) float64 {
	return 100 * (ratio(traced.mean(), plain.mean()) - 1)
}
