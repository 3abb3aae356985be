package main

import (
	"reflect"
	"testing"

	"flood"
	"flood/datagen"
	"flood/floodsql"
)

// TestRenderRoundTrip checks that generated standard-workload queries of
// three datasets, perfmon among them (the serving workload's), parse back
// through floodsql.ParseTyped into the same rectangle and aggregate.
func TestRenderRoundTrip(t *testing.T) {
	for _, name := range []string{"sales", "perfmon", "tpch"} {
		ds := datagen.ByName(name, 20000, 3)
		names := ds.Table.Names()
		schema := int64Schema(names)
		for i, q := range datagen.StandardWorkload(ds, 300, 4) {
			a := aggregate{col: i%len(names) - 1}
			sql := render(q, names, a)
			st, err := floodsql.ParseTyped(sql, schema)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, sql, err)
			}
			if len(st.Disjuncts) != 1 || !reflect.DeepEqual(st.Disjuncts[0], q) {
				t.Fatalf("%s: %q parsed to %v, want %v", name, sql, st.Disjuncts, q)
			}
			wantAgg := "sum"
			if a.col < 0 {
				wantAgg = "count"
			}
			if st.Agg != wantAgg || st.AggCol != a.col {
				t.Fatalf("%s: %q parsed to %s(%d), want %s(%d)", name, sql, st.Agg, st.AggCol, wantAgg, a.col)
			}
		}
	}
	// Windows the write workload issues: equality and wide ranges.
	names := []string{"time", "machine"}
	q := flood.NewQuery(2).WithRange(0, 0, 86399).WithEquals(1, 7)
	st, err := floodsql.ParseTyped(render(q, names, aggregate{col: -1}), int64Schema(names))
	if err != nil || !reflect.DeepEqual(st.Disjuncts[0], q) {
		t.Fatalf("window round trip: %v, %v", st, err)
	}
}
