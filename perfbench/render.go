package main

import (
	"strconv"
	"strings"

	"flood"
)

// aggregate names the aggregate of a benchmark query: COUNT(*) when col is
// negative, SUM(col) otherwise.
type aggregate struct{ col int }

func (a aggregate) aggregator() flood.Aggregator {
	if a.col < 0 {
		return flood.NewCount()
	}
	return flood.NewSum(a.col)
}

// render writes q as the floodsql statement the serving tier parses back
// into the same rectangle: every filtered dimension becomes one
// `col BETWEEN lo AND hi` (or `col = v`) conjunct.
func render(q flood.Query, names []string, a aggregate) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if a.col < 0 {
		b.WriteString("COUNT(*)")
	} else {
		b.WriteString("SUM(" + names[a.col] + ")")
	}
	b.WriteString(" FROM t")
	sep := " WHERE "
	for d, r := range q.Ranges {
		if !r.Present {
			continue
		}
		b.WriteString(sep)
		sep = " AND "
		b.WriteString(names[d])
		if r.Min == r.Max {
			b.WriteString(" = " + strconv.FormatInt(r.Min, 10))
		} else {
			b.WriteString(" BETWEEN " + strconv.FormatInt(r.Min, 10) + " AND " + strconv.FormatInt(r.Max, 10))
		}
	}
	return b.String()
}

// int64Schema is the typed schema of an all-int64 table, which lets the
// serving tier parse statements with floodsql.ParseTyped.
func int64Schema(names []string) *flood.Schema {
	s := flood.NewSchema()
	for _, n := range names {
		s.Int64(n)
	}
	return s
}
