// Package rstar implements the R*-tree baseline (§7.2). The paper used a
// bulk-loaded read-optimized R*-tree from libspatialindex; this
// implementation uses Sort-Tile-Recursive (STR) bulk loading — the standard
// read-optimized packing — producing the same query path: descend nodes
// whose minimum bounding rectangles intersect the query.
package rstar

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"flood/internal/colstore"
	"flood/internal/query"
)

// DefaultPageSize bounds leaf occupancy; DefaultFanout bounds internal nodes.
const (
	DefaultPageSize = 1024
	DefaultFanout   = 16
)

type node struct {
	mins, maxs []int64
	start, end int32
	children   []*node
}

// Index is an STR bulk-loaded R-tree.
type Index struct {
	t        *colstore.Table
	dims     []int
	root     *node
	numNodes int
}

// Build packs t over dims using STR tiling.
func Build(t *colstore.Table, dims []int, pageSize int) (*Index, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("rstar: no dimensions to index")
	}
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	n := t.NumRows()
	raws := make([][]int64, len(dims))
	for i, d := range dims {
		raws[i] = t.Raw(d)
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	b := &builder{raws: raws, pageSize: pageSize}
	var leaves []*node
	b.tile(rows, 0, &leaves)
	perm := make([]int, n)
	for i, r := range b.order {
		perm[i] = int(r)
	}
	idx := &Index{t: t.Reorder(perm), dims: append([]int(nil), dims...)}
	idx.numNodes = len(leaves)
	// Pack leaves upward into fanout-wide internal levels.
	level := leaves
	for len(level) > 1 {
		var up []*node
		for i := 0; i < len(level); i += DefaultFanout {
			j := i + DefaultFanout
			if j > len(level) {
				j = len(level)
			}
			parent := &node{
				mins:     make([]int64, len(dims)),
				maxs:     make([]int64, len(dims)),
				children: level[i:j:j],
				start:    level[i].start,
				end:      level[j-1].end,
			}
			copy(parent.mins, level[i].mins)
			copy(parent.maxs, level[i].maxs)
			for _, c := range level[i+1 : j] {
				for k := range dims {
					if c.mins[k] < parent.mins[k] {
						parent.mins[k] = c.mins[k]
					}
					if c.maxs[k] > parent.maxs[k] {
						parent.maxs[k] = c.maxs[k]
					}
				}
			}
			up = append(up, parent)
			idx.numNodes++
		}
		level = up
	}
	if len(level) == 1 {
		idx.root = level[0]
	} else {
		idx.root = &node{mins: make([]int64, len(dims)), maxs: make([]int64, len(dims))}
	}
	return idx, nil
}

type builder struct {
	raws     [][]int64
	pageSize int
	order    []int32
}

// tile recursively applies STR: sort by the current dimension, cut into
// slabs sized so that the final leaves hold ~pageSize points, recurse on the
// next dimension; the last dimension emits leaves directly.
func (b *builder) tile(rows []int32, dim int, leaves *[]*node) {
	if len(rows) == 0 {
		return
	}
	if dim == len(b.raws)-1 || len(rows) <= b.pageSize {
		sort.Slice(rows, func(a, c int) bool { return b.raws[dim][rows[a]] < b.raws[dim][rows[c]] })
		for s := 0; s < len(rows); s += b.pageSize {
			e := s + b.pageSize
			if e > len(rows) {
				e = len(rows)
			}
			*leaves = append(*leaves, b.leaf(rows[s:e]))
		}
		return
	}
	sort.Slice(rows, func(a, c int) bool { return b.raws[dim][rows[a]] < b.raws[dim][rows[c]] })
	pages := (len(rows) + b.pageSize - 1) / b.pageSize
	remaining := len(b.raws) - dim
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(rows) + slabs - 1) / slabs
	for s := 0; s < len(rows); s += slabSize {
		e := s + slabSize
		if e > len(rows) {
			e = len(rows)
		}
		b.tile(rows[s:e], dim+1, leaves)
	}
}

func (b *builder) leaf(rows []int32) *node {
	nd := &node{
		mins:  make([]int64, len(b.raws)),
		maxs:  make([]int64, len(b.raws)),
		start: int32(len(b.order)),
	}
	for i := range b.raws {
		nd.mins[i], nd.maxs[i] = b.raws[i][rows[0]], b.raws[i][rows[0]]
	}
	for _, r := range rows {
		for i := range b.raws {
			v := b.raws[i][r]
			if v < nd.mins[i] {
				nd.mins[i] = v
			}
			if v > nd.maxs[i] {
				nd.maxs[i] = v
			}
		}
	}
	b.order = append(b.order, rows...)
	nd.end = int32(len(b.order))
	return nd
}

// Name implements query.Index.
func (x *Index) Name() string { return "RStar" }

// SizeBytes implements query.Index.
func (x *Index) SizeBytes() int64 {
	perNode := int64(len(x.dims))*16 + 8 + 24
	return int64(x.numNodes) * perNode
}

// Table returns the index's reordered table.
func (x *Index) Table() *colstore.Table { return x.t }

// Execute implements query.Index.
func (x *Index) Execute(q query.Query, agg query.Aggregator) query.Stats {
	return x.ExecuteControl(nil, q, agg)
}

// ExecuteContext implements query.Index: Execute under ctx's cancellation,
// stopping between leaf spans and at block-group boundaries inside the
// scan kernel.
func (x *Index) ExecuteContext(ctx context.Context, q query.Query, agg query.Aggregator) (query.Stats, error) {
	return query.RunContext(ctx, q, agg, x.ExecuteControl)
}

// ExecuteControl implements query.ControlIndex: Execute threaded with an
// externally owned execution control (nil scans unconditionally).
func (x *Index) ExecuteControl(ctl *query.Control, q query.Query, agg query.Aggregator) query.Stats {
	var st query.Stats
	t0 := time.Now()
	if q.Empty() || x.t.NumRows() == 0 {
		st.Total = time.Since(t0)
		return st
	}
	type span struct {
		start, end int32
		exact      bool
	}
	var spans []span
	dims := q.FilteredDims()
	var walk func(nd *node)
	walk = func(nd *node) {
		rel := relation(q, x.dims, nd.mins, nd.maxs)
		if rel == relDisjoint {
			return
		}
		if rel == relContained {
			st.CellsVisited++
			spans = append(spans, span{nd.start, nd.end, true})
			return
		}
		if nd.children == nil {
			st.CellsVisited++
			spans = append(spans, span{nd.start, nd.end, false})
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(x.root)
	t1 := time.Now()
	st.IndexTime = t1.Sub(t0)

	sc := query.NewScanner(x.t)
	sc.SetControl(ctl)
	for _, sp := range spans {
		if ctl.Stopped() {
			break
		}
		if sp.exact {
			s, m := sc.ScanExactRange(int(sp.start), int(sp.end), agg)
			st.Scanned += s
			st.Matched += m
			st.ExactMatched += m
			continue
		}
		s, m := sc.ScanRange(q, dims, int(sp.start), int(sp.end), agg)
		st.Scanned += s
		st.Matched += m
	}
	st.ScanTime = time.Since(t1)
	st.Total = time.Since(t0)
	return st
}

type rel int

const (
	relDisjoint rel = iota
	relIntersect
	relContained
)

func relation(q query.Query, dims []int, mins, maxs []int64) rel {
	contained := true
	for _, d := range q.FilteredDims() {
		i := -1
		for j, dd := range dims {
			if dd == d {
				i = j
				break
			}
		}
		if i < 0 {
			contained = false
			continue
		}
		r := q.Ranges[d]
		if maxs[i] < r.Min || mins[i] > r.Max {
			return relDisjoint
		}
		if mins[i] < r.Min || maxs[i] > r.Max {
			contained = false
		}
	}
	if contained {
		return relContained
	}
	return relIntersect
}
