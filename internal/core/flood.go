package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flood/internal/colstore"
	"flood/internal/plm"
	"flood/internal/query"
	"flood/internal/rmi"
)

// Flood is a built index: the table reordered into grid traversal order, the
// cell table mapping cells to physical ranges, per-dimension bucketing
// models, and per-cell refinement models.
type Flood struct {
	t      *colstore.Table
	layout Layout
	opts   Options

	buckets   []bucketer // one per grid dimension
	strides   []int      // mixed-radix strides per grid dimension
	numCells  int
	cellStart []int32      // len numCells+1: physical start per cell
	models    []*plm.Model // per cell, nil when empty or refinement is not model-based

	// Cell-size statistics for the cost model (§4.1.1).
	nonEmptyCells  int
	avgCellSize    float64
	medianCellSize float64
	p99CellSize    float64

	// parallelCutover is the estimated scanned-row count at or above which
	// Execute leaves the zero-alloc sequential scan for the morsel-driven
	// parallel engine (see exec_parallel.go).
	parallelCutover int

	// tomb is the current tombstone set (nil until the first delete). Each
	// published value is immutable; mutators install a copied superset (see
	// mutate.go), and every query captures the pointer exactly once at scan
	// setup, so one Execute observes one consistent deleted set end to end
	// even while deletes race it.
	tomb atomic.Pointer[colstore.Tombstones]
}

type scanRange struct {
	cell       int32
	start, end int32
	mask       uint64 // residual filter dims needing per-row checks
}

// execScratch holds the per-query working set of Execute — projection
// coordinates, the scan-range list, and the parallel path's morsel list — so
// the steady-state query path allocates nothing. Scratch is pooled
// package-wide; slices grow to each index's dimensionality once and are
// reused.
type execScratch struct {
	ranges  []scanRange
	morsels []morsel
	los     []int
	his     []int
	coords  []int
	present []bool
}

var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

func (es *execScratch) grids(g int) (los, his, coords []int, present []bool) {
	if cap(es.los) < g {
		es.los = make([]int, g)
		es.his = make([]int, g)
		es.coords = make([]int, g)
		es.present = make([]bool, g)
	}
	return es.los[:g], es.his[:g], es.coords[:g], es.present[:g]
}

// Build constructs a Flood index over t with the given layout. The input
// table is not modified; the index holds a reordered copy.
func Build(t *colstore.Table, layout Layout, opts Options) (*Flood, error) {
	if err := layout.Validate(t.NumCols()); err != nil {
		return nil, err
	}
	n := t.NumRows()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: table has %d rows; max supported is %d", n, math.MaxInt32)
	}
	if t.NumCols() > 64 {
		// Residual filter sets are dimension bitmasks in one uint64.
		return nil, fmt.Errorf("core: table has %d dimensions; max supported is 64", t.NumCols())
	}
	if opts.Delta <= 0 {
		opts.Delta = plm.DefaultDelta
	}
	f := &Flood{layout: layout, opts: opts, numCells: layout.NumCells()}
	f.computeParallelCutover()
	g := len(layout.GridDims)
	f.strides = make([]int, g)
	stride := 1
	for i := g - 1; i >= 0; i-- {
		f.strides[i] = stride
		stride *= layout.GridCols[i]
	}

	// Train per-dimension bucketers (independent: one goroutine per grid
	// dim; each decoded column is dropped as soon as its model is fit),
	// then assign each row to a cell in parallel row chunks, decoding grid
	// columns block-at-a-time so no full raw column stays resident.
	f.buckets = make([]bucketer, g)
	parallelFor(g, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			raw := t.Raw(layout.GridDims[gi])
			if layout.Flatten {
				leaves := opts.CDFLeaves
				if leaves <= 0 {
					leaves = defaultCDFLeaves(n)
				}
				f.buckets[gi] = cdfBucketer{cdf: rmi.TrainCDF(raw, leaves)}
			} else {
				var minV, maxV int64
				if len(raw) > 0 {
					minV, maxV = raw[0], raw[0]
					for _, v := range raw[1:] {
						if v < minV {
							minV = v
						}
						if v > maxV {
							maxV = v
						}
					}
				}
				f.buckets[gi] = newLinearBucketer(minV, maxV)
			}
		}
	})
	cells := make([]int32, n)
	parallelFor(n, func(lo, hi int) {
		var buf [colstore.BlockSize]int64
		for gi := 0; gi < g; gi++ {
			col := t.Column(layout.GridDims[gi])
			b := f.buckets[gi]
			cols := layout.GridCols[gi]
			str := int32(f.strides[gi])
			for i := lo; i < hi; {
				blk := i / colstore.BlockSize
				blockLo := blk * colstore.BlockSize
				j1 := col.DecodeBlock(blk, buf[:])
				if blockLo+j1 > hi {
					j1 = hi - blockLo
				}
				for j := i - blockLo; j < j1; j++ {
					cells[blockLo+j] += int32(b.bucket(buf[j], cols)) * str
				}
				i = blockLo + j1
			}
		}
	})
	if n == 0 {
		f.t = t
		f.cellStart = make([]int32, f.numCells+1)
		return f, nil
	}

	// Order rows by (cell, sort value): a depth-first traversal of the grid
	// with per-cell sorting (§3.1). Cell order comes from an O(n) counting
	// sort — the cell histogram doubles as the cell table (§3.2.1) — and
	// only the sort dimension is comparison-sorted, cell by cell, in
	// parallel cell chunks.
	f.cellStart = make([]int32, f.numCells+1)
	for _, c := range cells {
		f.cellStart[c+1]++
	}
	for c := 0; c < f.numCells; c++ {
		f.cellStart[c+1] += f.cellStart[c]
	}
	perm := make([]int, n)
	next := make([]int32, f.numCells)
	copy(next, f.cellStart[:f.numCells])
	for i := 0; i < n; i++ {
		c := cells[i]
		perm[next[c]] = i
		next[c]++
	}
	if layout.SortDim >= 0 {
		// Sort (value, row) pairs rather than rows through an indirection:
		// the keys travel with the swaps, halving cache misses.
		sortVals := t.Raw(layout.SortDim)
		pairs := make([]sortPair, n)
		for i, p := range perm {
			pairs[i] = sortPair{v: sortVals[p], row: int32(p)}
		}
		parallelFor(f.numCells, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				cs, ce := f.cellStart[c], f.cellStart[c+1]
				if ce-cs > 1 {
					slices.SortFunc(pairs[cs:ce], func(a, b sortPair) int {
						return cmp.Compare(a.v, b.v)
					})
				}
			}
		})
		for i, p := range pairs {
			perm[i] = int(p.row)
		}
	}
	f.t = t.Reorder(perm)

	// Bitmap indexes over low-cardinality columns of the reordered data:
	// residual filters on them become precomputed-bitmap ANDs in the scan
	// kernel instead of decode-and-compare passes.
	f.t.EnableBitmapIndexes(opts.bitmapMaxCard())

	// Per-cell refinement models over the sort dimension (§5.2).
	if layout.SortDim >= 0 && opts.Refinement == RefineModel {
		sorted := f.t.Raw(layout.SortDim)
		f.models = make([]*plm.Model, f.numCells)
		parallelFor(f.numCells, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				cs, ce := f.cellStart[c], f.cellStart[c+1]
				if cs == ce {
					continue
				}
				f.models[c] = plm.Train(sorted[cs:ce], opts.Delta)
			}
		})
	}
	f.computeCellStats()
	return f, nil
}

// sortPair carries a sort-dimension key together with its original row so
// per-cell sorts touch one contiguous array.
type sortPair struct {
	v   int64
	row int32
}

func defaultCDFLeaves(n int) int {
	l := n / 64
	if l < 16 {
		l = 16
	}
	if l > 1024 {
		l = 1024
	}
	return l
}

// computeParallelCutover resolves Options.ParallelCutover: 0 picks the
// default (the scan volume where parallel dispatch overhead clearly
// amortizes), negative disables the parallel path entirely.
func (f *Flood) computeParallelCutover() {
	switch {
	case f.opts.ParallelCutover > 0:
		f.parallelCutover = f.opts.ParallelCutover
	case f.opts.ParallelCutover < 0:
		f.parallelCutover = math.MaxInt
	default:
		f.parallelCutover = defaultParallelCutover
	}
}

func (f *Flood) computeCellStats() {
	sizes := make([]int, 0, f.numCells)
	total := 0
	for c := 0; c < f.numCells; c++ {
		if sz := int(f.cellStart[c+1] - f.cellStart[c]); sz > 0 {
			sizes = append(sizes, sz)
			total += sz
		}
	}
	f.nonEmptyCells = len(sizes)
	if len(sizes) == 0 {
		return
	}
	sort.Ints(sizes)
	f.avgCellSize = float64(total) / float64(len(sizes))
	f.medianCellSize = float64(sizes[len(sizes)/2])
	f.p99CellSize = float64(sizes[(len(sizes)-1)*99/100])
}

// Name implements query.Index.
func (f *Flood) Name() string { return "Flood" }

// Layout returns the layout the index was built with.
func (f *Flood) Layout() Layout { return f.layout }

// Options returns the options the index was built with (so wrappers like the
// delta index can rebuild with identical settings).
func (f *Flood) Options() Options { return f.opts }

// Table returns the index's reordered data.
func (f *Flood) Table() *colstore.Table { return f.t }

// NumCells returns the total number of grid cells.
func (f *Flood) NumCells() int { return f.numCells }

// NonEmptyCells returns the number of cells holding at least one point.
func (f *Flood) NonEmptyCells() int { return f.nonEmptyCells }

// CellSizeStats returns (average, median, 99th percentile) of non-empty cell
// sizes — cost model features (§4.1.1).
func (f *Flood) CellSizeStats() (avg, median, p99 float64) {
	return f.avgCellSize, f.medianCellSize, f.p99CellSize
}

// CellBounds returns the physical row range [start, end) stored for cell c.
func (f *Flood) CellBounds(c int) (start, end int) {
	return int(f.cellStart[c]), int(f.cellStart[c+1])
}

// SizeBytes reports index metadata size: the cell table, bucketing models,
// and per-cell refinement models. The stored data itself is excluded.
func (f *Flood) SizeBytes() int64 {
	s := int64(len(f.cellStart)) * 4
	for _, b := range f.buckets {
		s += b.sizeBytes()
	}
	for _, m := range f.models {
		if m != nil {
			s += m.SizeBytes()
		}
	}
	return s
}

// Execute implements query.Index: projection, refinement, scan (§3.2).
//
// Small queries run the sequential path, which performs zero heap
// allocations in steady state: projection scratch and scan ranges come from
// a pool, and the scanner reuses per-dimension decode buffers. When the
// aggregator is mergeable and the refined ranges cover at least the
// cost-based cutover (Options.ParallelCutover rows, known exactly and for
// free after refinement), the scan fans out over the morsel-driven worker
// pool instead (see exec_parallel.go); results and scan counters are
// identical either way.
func (f *Flood) Execute(q query.Query, agg query.Aggregator) query.Stats {
	return f.execute(q, agg, 0, nil, 0)
}

// execute is the shared body of Execute, ExecuteParallel, ExecuteBatch, and
// the context-aware entry points. workers selects the scan strategy: 0 is
// adaptive (sequential below the cutover, GOMAXPROCS workers above it), 1
// forces the sequential path, and n > 1 forces the morsel engine with n
// workers. ctl, when non-nil, threads cancellation and the shared limit
// budget into the scan phase. cutover overrides the index's parallel
// cutover for this query (0 keeps the index default, negative pins the
// query sequential).
func (f *Flood) execute(q query.Query, agg query.Aggregator, workers int, ctl *query.Control, cutover int) query.Stats {
	var st query.Stats
	t0 := time.Now()
	if q.Empty() || f.t.NumRows() == 0 || ctl.Stopped() {
		st.Total = time.Since(t0)
		return st
	}
	es := scratchPool.Get().(*execScratch)
	ranges := f.project(q, es, &st)
	t1 := time.Now()
	st.ProjectTime = t1.Sub(t0)

	// Resolve the cost-based cutover, honoring a per-query override.
	cut := f.parallelCutover
	switch {
	case cutover > 0:
		cut = cutover
	case cutover < 0:
		cut = math.MaxInt
	}

	// Pre-refinement row count: an upper bound on the scan volume, free to
	// compute. Refinement probes fan out only when the query is allowed to
	// parallelize at all (workers != 1) and was big before refinement —
	// so the sequential cutover path, ExecuteSequential, and batch workers
	// never touch the pool, stay allocation-free, and skip the estimate
	// loops entirely.
	// Capture the tombstone set once per query: the scan phase (sequential
	// or morsel-parallel) masks against this snapshot only, giving the query
	// a stable view of the deleted set even while deletes land concurrently.
	tombW := f.tomb.Load().Words()

	m, mergeable := agg.(query.Mergeable)
	refineParallel := false
	if workers != 1 {
		preEst := 0
		for i := range ranges {
			preEst += int(ranges[i].end - ranges[i].start)
		}
		refineParallel = preEst >= cut
	}
	f.refine(q, ranges, &st, refineParallel)
	t2 := time.Now()
	st.RefineTime = t2.Sub(t1)
	st.IndexTime = st.ProjectTime + st.RefineTime

	if workers == 1 || !mergeable {
		f.scan(q, ranges, agg, &st, ctl, tombW)
	} else {
		est := 0
		for i := range ranges {
			est += int(ranges[i].end - ranges[i].start)
		}
		if workers == 0 && (est < cut || maxWorkers() <= 1) {
			f.scan(q, ranges, agg, &st, ctl, tombW)
		} else {
			f.scanParallel(q, ranges, m, &st, workers, est, es, ctl, tombW)
		}
	}
	es.ranges = ranges[:0]
	scratchPool.Put(es)
	t3 := time.Now()
	st.ScanTime = t3.Sub(t2)
	st.Total = t3.Sub(t0)
	return st
}

// refines reports whether sort-dimension refinement applies to q.
func (f *Flood) refines(q query.Query) bool {
	return f.layout.SortDim >= 0 && q.Ranges[f.layout.SortDim].Present &&
		f.opts.Refinement != RefineNone
}

// project implements §3.2.1: identify the non-empty cells intersecting the
// query rectangle and their physical ranges, tagging each with the residual
// filter dimensions that must be row-checked during the scan.
//
// Cells are visited in increasing cell-number order, so physically adjacent
// ranges with identical residual masks are coalesced as they are emitted
// (the innermost grid dimension has stride 1: runs of cells along it map to
// one contiguous physical range). A large query rectangle therefore produces
// O(perimeter) scan ranges instead of O(volume). Coalescing is disabled when
// sort-dimension refinement applies, since refinement relies on per-cell
// sort order. CellsVisited counts only non-empty cells, matching
// NonEmptyCells accounting.
func (f *Flood) project(q query.Query, es *execScratch, st *query.Stats) []scanRange {
	g := len(f.layout.GridDims)
	los, his, coords, present := es.grids(g)
	for gi, dim := range f.layout.GridDims {
		r := q.Ranges[dim]
		cols := f.layout.GridCols[gi]
		if r.Present {
			los[gi] = f.buckets[gi].bucket(r.Min, cols)
			his[gi] = f.buckets[gi].bucket(r.Max, cols)
			present[gi] = true
		} else {
			los[gi], his[gi] = 0, cols-1
			present[gi] = false
		}
	}
	// Residual filters that must be checked per row: filtered dims that
	// are neither grid dims nor a refined sort dim.
	var baseMask uint64
	refine := f.refines(q)
	for d, r := range q.Ranges {
		if !r.Present {
			continue
		}
		if d == f.layout.SortDim && refine {
			continue
		}
		if gi := f.gridIndexOf(d); gi >= 0 {
			continue // handled per cell: interior cells skip the check
		}
		baseMask |= 1 << uint(d)
	}

	coalesce := !refine
	ranges := es.ranges[:0]
	copy(coords, los)
	for {
		cell := 0
		mask := baseMask
		for gi := 0; gi < g; gi++ {
			cell += coords[gi] * f.strides[gi]
			if present[gi] && (coords[gi] == los[gi] || coords[gi] == his[gi]) {
				mask |= 1 << uint(f.layout.GridDims[gi])
			}
		}
		cs, ce := f.cellStart[cell], f.cellStart[cell+1]
		if cs != ce {
			st.CellsVisited++
			if coalesce && len(ranges) > 0 {
				if last := &ranges[len(ranges)-1]; last.mask == mask && last.end == cs {
					last.end = ce
					goto next
				}
			}
			ranges = append(ranges, scanRange{cell: int32(cell), start: cs, end: ce, mask: mask})
		}
	next:
		// Odometer over the query rectangle's cells.
		gi := g - 1
		for ; gi >= 0; gi-- {
			coords[gi]++
			if coords[gi] <= his[gi] {
				break
			}
			coords[gi] = los[gi]
		}
		if gi < 0 {
			break
		}
	}
	es.ranges = ranges
	st.ScanRanges = int64(len(ranges))
	return ranges
}

// refineParallelRanges is the range count at which refinement probes fan out
// over the worker pool; below it, the sequential loop stays allocation-free.
const refineParallelRanges = 128

// refine implements §3.2.2 / §5.2: narrow each range along the sort
// dimension, mutating ranges in place. Both ends of a range are found by
// the column's zone-map-steered lower-bound search: a binary search over the
// minima of the blocks inside the cell picks one block, and a search inside
// it unpacks one value per probe — no block decoding and no per-probe
// accessor closures. Under RefineModel the cell's model prediction seeds a
// gallop over those minima first. When parallel is set, queries
// touching many cells spread the probes per-range over the worker pool:
// ranges are independent, so results match the sequential loop exactly.
func (f *Flood) refine(q query.Query, ranges []scanRange, st *query.Stats, parallel bool) {
	if !f.refines(q) {
		return
	}
	st.RangesRefined += int64(len(ranges))
	if parallel && len(ranges) >= refineParallelRanges && maxWorkers() > 1 {
		poolFor(len(ranges), 32, func(lo, hi int) {
			f.refineRanges(q, ranges[lo:hi])
		})
		return
	}
	f.refineRanges(q, ranges)
}

// refineRanges narrows one slice of ranges; it is the workhorse shared by
// the sequential and parallel refinement paths.
func (f *Flood) refineRanges(q query.Query, ranges []scanRange) {
	r := q.Ranges[f.layout.SortDim]
	col := f.t.Column(f.layout.SortDim)
	useModel := f.opts.Refinement == RefineModel && f.models != nil
	for i := range ranges {
		rg := &ranges[i]
		base, end := int(rg.start), int(rg.end)
		var i1, i2 int
		if useModel && f.models[rg.cell] != nil {
			m := f.models[rg.cell]
			if r.Min == query.NegInf {
				i1 = base
			} else {
				i1 = col.LowerBoundHint(base, end, base+m.Predict(r.Min), r.Min)
			}
			if r.Max == query.PosInf {
				i2 = end
			} else {
				i2 = col.LowerBoundHint(base, end, base+m.Predict(r.Max+1), r.Max+1)
			}
		} else {
			if r.Min == query.NegInf {
				i1 = base
			} else {
				i1 = col.LowerBound(base, end, r.Min)
			}
			if r.Max == query.PosInf {
				i2 = end
			} else {
				i2 = col.LowerBound(base, end, r.Max+1)
			}
		}
		rg.start, rg.end = int32(i1), int32(i2)
	}
}

// scan implements §3.2 step 3: visit every refined physical range, using
// exact-range fast paths when no residual filters remain. ctl, when
// non-nil, is polled between ranges (and inside the scan kernel) so a
// cancellation or satisfied limit stops the walk early.
func (f *Flood) scan(q query.Query, ranges []scanRange, agg query.Aggregator, st *query.Stats, ctl *query.Control, tomb []uint64) {
	sc := query.GetScanner(f.t)
	sc.SetControl(ctl)
	sc.SetTombstones(tomb)
	var dimsBuf [64]int
	dims := dimsBuf[:0]
	var lastMask uint64
	haveDims := false // a bool sentinel: every uint64 is a legal 64-dim mask
	for _, rg := range ranges {
		if rg.start >= rg.end {
			continue
		}
		if ctl.Stopped() {
			break
		}
		if rg.mask == 0 {
			s, m := sc.ScanExactRange(int(rg.start), int(rg.end), agg)
			st.Scanned += s
			st.Matched += m
			st.ExactMatched += m
			continue
		}
		if !haveDims || rg.mask != lastMask {
			dims = maskDims(rg.mask, dims)
			lastMask, haveDims = rg.mask, true
		}
		s, m := sc.ScanRange(q, dims, int(rg.start), int(rg.end), agg)
		st.Scanned += s
		st.Matched += m
	}
	sc.Release()
}

func (f *Flood) gridIndexOf(dim int) int {
	for gi, d := range f.layout.GridDims {
		if d == dim {
			return gi
		}
	}
	return -1
}
