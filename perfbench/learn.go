package main

import (
	"fmt"
	"strings"
	"time"

	"flood"
	"flood/datagen"
)

const (
	learnRows     = 500_000
	learnCalRows  = 100_000
	learnShards   = 4
	learnTrain    = 100
	learnHeldOut  = 200
	learnCalQuery = 40
)

// learnPhase runs the layout-learning layers once, in the traced olap run:
// calibrate a cost model, learn a flat layout with flood.Build and a
// 4-shard index with flood.NewSharded sharing that model, and run held-out
// queries on both. Calibration fits the model to timed queries, so the
// learned layouts differ from run to run; the phase records them next to
// the scan overhead they achieve so that spread stays visible.
func learnPhase(cfg *config, res *result) error {
	ds := datagen.TPCH(learnRows, cfg.seed+100)
	qs := datagen.StandardWorkload(ds, learnTrain+learnHeldOut, cfg.seed+101)
	train, held := qs[:learnTrain], qs[learnTrain:]
	cal := datagen.TPCH(learnCalRows, cfg.seed+102)
	calQs := datagen.StandardWorkload(cal, learnCalQuery, cfg.seed+103)

	t0 := time.Now()
	model, err := flood.Calibrate(cal.Table, calQs, &flood.Options{Seed: cfg.seed})
	if err != nil {
		return fmt.Errorf("calibrating: %w", err)
	}
	t1 := time.Now()
	opts := &flood.Options{CostModel: model, Seed: cfg.seed}
	flat, err := flood.Build(ds.Table, train, opts)
	if err != nil {
		return fmt.Errorf("learning flat layout: %w", err)
	}
	t2 := time.Now()
	if _, err := flood.BuildWithLayout(ds.Table, flat.Layout(), nil); err != nil {
		return fmt.Errorf("rebuilding learned layout: %w", err)
	}
	t3 := time.Now()
	sh, err := flood.NewSharded(ds.Table, train, &flood.ShardedOptions{Shards: learnShards, Build: opts})
	if err != nil {
		return fmt.Errorf("learning sharded layouts: %w", err)
	}
	defer sh.Close()
	t4 := time.Now()
	root := cfg.tr.add("bench.learn", t0, t4, -1, 0)
	cfg.tr.add("costmodel.Calibrate", t0, t1, root, 0)
	cfg.tr.add("flood.Build", t1, t2, root, 0)
	cfg.tr.add("flood.BuildWithLayout", t2, t3, root, 0)
	cfg.tr.add("flood.NewSharded", t3, t4, root, 0)

	res.layer["costmodel.calibrate_s"] = t1.Sub(t0).Seconds()
	// Build is search plus construction; construction alone is timed by
	// rebuilding the learned layout.
	res.layer["optimizer.search_s"] = max(t2.Sub(t1)-t3.Sub(t2), 0).Seconds()
	res.layer["shard.build_s"] = t4.Sub(t3).Seconds()

	// The cost model's predicted mean query time against the measured one
	// on the training queries, as a factor >= 1 either way.
	var trainNs float64
	for _, q := range train {
		st := flat.Execute(q, flood.NewCount())
		trainNs += float64(st.Total.Nanoseconds())
	}
	predicted, actual := flat.PredictedCost(), trainNs/float64(len(train))
	res.layer["optimizer.prediction_ratio"] = max(ratio(predicted, actual), ratio(actual, predicted))
	res.note("learn: predicted %.0f ns per training query, measured %.0f ns", predicted, actual)

	o := newOracle(ds.Cols)
	before := shardQueries(sh)
	var fs, ss flood.Stats
	for i, q := range held {
		want, matched := o.answer(q, aggregate{col: -1})
		for _, idx := range []flood.Index{flat, sh} {
			agg := flood.NewCount()
			st := idx.Execute(q, agg)
			res.attempted++
			if agg.Result() != want || st.Matched != matched {
				res.failed++
				res.wrong++
			}
			if idx == flood.Index(flat) {
				fs.Add(st)
			} else {
				ss.Add(st)
			}
			cfg.tr.addDur("learn.Execute."+idx.Name(), time.Now().Add(-st.Total), st.Total, -1, int64(i))
		}
	}
	res.layer["optimizer.scanned_per_match"] = ratio(float64(fs.Scanned), float64(fs.Matched))
	res.layer["shard.scanned_vs_flat"] = ratio(float64(ss.Scanned), float64(fs.Scanned))
	res.layer["shard.visited_per_query"] = float64(shardQueries(sh)-before) / float64(len(held))

	var rows []int
	var shardLayouts []string
	maxRows, total := 0, 0
	for i, st := range sh.ShardStats() {
		rows = append(rows, st.Rows)
		maxRows, total = max(maxRows, st.Rows), total+st.Rows
		shardLayouts = append(shardLayouts, sh.Shard(i).Layout().String())
	}
	res.layer["shard.skew"] = ratio(float64(maxRows)*float64(len(rows)), float64(total))
	res.note("learn: flat layout %s, scan overhead %.3f on %d held-out queries", flat.Layout(), res.layer["optimizer.scanned_per_match"], len(held))
	res.note("learn: %d shards split on column %d, rows %v, layouts [%s], scanned vs flat %.3f",
		sh.NumShards(), sh.SplitDim(), rows, strings.Join(shardLayouts, "; "), res.layer["shard.scanned_vs_flat"])
	return nil
}

// shardQueries sums the queries every shard has served.
func shardQueries(sh *flood.ShardedIndex) int64 {
	var n int64
	for _, st := range sh.ShardStats() {
		n += st.Queries
	}
	return n
}
