package core

import (
	"math/rand"
	"testing"

	"flood/internal/colstore"
	"flood/internal/query"
)

// Ablation benchmarks for the paper's design choices (§5): the refinement
// strategy (learned PLM vs binary search vs none) and flattening (CDF vs
// equi-width columns). docs/BENCHMARKS.md says what each one measures. Run
// with:
//
//	go test ./internal/core -bench Ablation -benchmem

func benchIndex(b *testing.B, layout Layout, opts Options) (*Flood, []query.Query) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	n := 200_000
	data := make([][]int64, 3)
	names := []string{"a", "b", "c"}
	for d := range data {
		data[d] = make([]int64, n)
		for i := range data[d] {
			data[d][i] = rng.Int63n(1 << 20)
		}
	}
	tbl, err := colstore.NewTable(names, data)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := Build(tbl, layout, opts)
	if err != nil {
		b.Fatal(err)
	}
	var queries []query.Query
	for i := 0; i < 64; i++ {
		lo := rng.Int63n(1 << 20)
		w := int64(1 << 14)
		queries = append(queries, query.NewQuery(3).
			WithRange(0, lo, lo+w).
			WithRange(2, lo/2, lo/2+w*4))
	}
	return idx, queries
}

func benchExecute(b *testing.B, idx *Flood, queries []query.Query) {
	agg := query.NewCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Reset()
		idx.Execute(queries[i%len(queries)], agg)
	}
}

var ablationLayout = Layout{GridDims: []int{0}, GridCols: []int{64}, SortDim: 2, Flatten: true}

func BenchmarkAblationRefinePLM(b *testing.B) {
	idx, qs := benchIndex(b, ablationLayout, Options{Refinement: RefineModel})
	benchExecute(b, idx, qs)
}

func BenchmarkAblationRefineBinary(b *testing.B) {
	idx, qs := benchIndex(b, ablationLayout, Options{Refinement: RefineBinary})
	benchExecute(b, idx, qs)
}

func BenchmarkAblationRefineNone(b *testing.B) {
	idx, qs := benchIndex(b, ablationLayout, Options{Refinement: RefineNone})
	benchExecute(b, idx, qs)
}

func BenchmarkAblationFlattened(b *testing.B) {
	idx, qs := benchIndex(b, Layout{GridDims: []int{0, 1}, GridCols: []int{16, 8}, SortDim: 2, Flatten: true}, Options{})
	benchExecute(b, idx, qs)
}

func BenchmarkAblationEquiWidth(b *testing.B) {
	idx, qs := benchIndex(b, Layout{GridDims: []int{0, 1}, GridCols: []int{16, 8}, SortDim: 2, Flatten: false}, Options{})
	benchExecute(b, idx, qs)
}

// BenchmarkAblationDeltaSweep measures end-to-end query impact of the PLM
// error budget (§7.8).
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []float64{5, 50, 500} {
		b.Run(deltaName(delta), func(b *testing.B) {
			idx, qs := benchIndex(b, ablationLayout, Options{Delta: delta})
			benchExecute(b, idx, qs)
		})
	}
}

func deltaName(d float64) string {
	switch d {
	case 5:
		return "delta5"
	case 50:
		return "delta50"
	default:
		return "delta500"
	}
}

func BenchmarkBuild200k(b *testing.B) {
	rng := rand.New(rand.NewSource(100))
	n := 200_000
	data := make([][]int64, 3)
	for d := range data {
		data[d] = make([]int64, n)
		for i := range data[d] {
			data[d][i] = rng.Int63n(1 << 20)
		}
	}
	tbl, err := colstore.NewTable([]string{"a", "b", "c"}, data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tbl, ablationLayout, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
