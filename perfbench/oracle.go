package main

import (
	"slices"
	"sort"

	"flood"
)

// oracle answers COUNT/SUM over raw generated columns without any flood
// code. It filters rows by every predicate of the query; to avoid a full
// pass per query it first narrows the rows to those inside the query's
// range on its most selective filtered dimension, found by binary search in
// a per-dimension sorted copy of the column.
type oracle struct {
	cols   [][]int64
	n      int
	sorted [][]uint64 // per dimension: value<<rowBits | row, ascending; nil until used
}

const (
	rowBits  = 21 // rows < 2M
	rowMask  = 1<<rowBits - 1
	maxValue = 1<<(64-rowBits-1) - 1 // packed values stay positive
)

func newOracle(cols [][]int64) *oracle {
	return &oracle{cols: cols, n: len(cols[0]), sorted: make([][]uint64, len(cols))}
}

// index returns dimension d's sorted copy, or nil when the column cannot be
// packed (negative or huge values, too many rows): the oracle then scans.
func (o *oracle) index(d int) []uint64 {
	if o.sorted[d] != nil || o.n > rowMask {
		return o.sorted[d]
	}
	p := make([]uint64, o.n)
	for i, v := range o.cols[d] {
		if v < 0 || v > maxValue {
			return nil
		}
		p[i] = uint64(v)<<rowBits | uint64(i)
	}
	slices.Sort(p)
	o.sorted[d] = p
	return p
}

// answer returns (SUM(a.col) or COUNT(*), matched rows) for q.
func (o *oracle) answer(q flood.Query, a aggregate) (value, matched int64) {
	var cand []uint64
	for d, r := range q.Ranges {
		if !r.Present {
			continue
		}
		if r.Min > r.Max {
			return 0, 0
		}
		idx := o.index(d)
		if idx == nil {
			continue
		}
		lo := uint64(min(max(r.Min, 0), maxValue)) << rowBits
		hi := uint64(min(max(r.Max, 0), maxValue))<<rowBits | rowMask
		i := sort.Search(len(idx), func(k int) bool { return idx[k] >= lo })
		j := sort.Search(len(idx), func(k int) bool { return idx[k] > hi })
		if r.Max < 0 {
			i, j = 0, 0
		}
		if cand == nil || j-i < len(cand) {
			cand = idx[i:j]
		}
	}
	match := func(row int) {
		for d, r := range q.Ranges {
			if r.Present {
				if v := o.cols[d][row]; v < r.Min || v > r.Max {
					return
				}
			}
		}
		matched++
		if a.col >= 0 {
			value += o.cols[a.col][row]
		}
	}
	if cand != nil {
		for _, p := range cand {
			match(int(p & rowMask))
		}
	} else {
		for row := 0; row < o.n; row++ {
			match(row)
		}
	}
	if a.col < 0 {
		value = matched
	}
	return value, matched
}
