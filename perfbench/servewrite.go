package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flood"
	"flood/datagen"
	"flood/floodsql"
	"flood/internal/server"
)

// The traffic constants below are the benchmark's own assumptions, not
// taken from a published trace; README.md lists them with the reasons
// they were chosen. The store keeps AdaptiveConfig's default merge
// fraction (a merge once the insert log holds 1/8 of the base, 50k rows
// here), and the ingest rate is set so that a run merges several times.
const (
	writeRows      = 400_000
	writeCalRows   = 50_000
	writeBatch     = 100  // rows per POST /insert
	writeInsertPct = 30   // share of ingest operations that are inserts
	writeDeleteGap = 100  // every writeDeleteGap-th operation is a retention delete
	writeRate      = 200. // ingest operations per second
	// writeReadRate is the rate of the open loop of reads after ingest,
	// about a fifth of their closed-loop throughput.
	writeReadRate = 200.
	// writeBlock is one window of the reads after ingest: an open loop for
	// its first 60% (360 reads, 36 of them beyond the block's p90), then a
	// closed loop. Alternating the two through the phase keeps a slow
	// spell of the host from landing on one of them alone.
	writeBlock = 3 * time.Second
	day        = 86400
	writeEpoch = 365 * day // inserted rows start after the base year
)

// writeReply is what the client records of one serve-write operation.
type writeReply struct {
	kind           uint8
	ok, counted    bool
	acked          int64 // insert: rows acknowledged
	t              timing
	queue, served  time.Duration // from the response's queue_us and elapsed_us
	value, matched int64         // read: the answer
	busy           time.Duration // from send until the client is ready for its next request
	traced         bool
}

// Operation kinds of the write workload.
const (
	opRead = iota
	opInsert
	opDelete
)

// runServeWrite ingests perfmon rows into server.NewDurable over a 400k-row
// pinned base, with the WAL fsynced on every insert. The ingest phase is an
// open loop of dashboard reads over the most recent hour, bulk POST /insert
// batches, and a periodic retention DELETE of the oldest remaining day,
// with background merges. Once merges finish, an open loop and then a
// closed loop of dashboard reads over windows of the ingested data measure
// the store the writes left behind. Every read's answer is checked against
// the client's record of inserted rows (checkReads), and a final pass
// checks full-table and windowed aggregates against its record of live
// rows.
//
// The end-to-end latencies come from the reads after ingest: on a shared
// 2-core VM the ingest phase's own latencies, set by fsync and by merges
// competing for the CPU, spread too far from run to run to bound, so they
// are per-layer metrics (serve.read_*, serve.write_*).
func runServeWrite(cfg *config) (*result, error) {
	res := newResult()
	var (
		ds         *datagen.Dataset
		sv         *serving
		store      *flood.DurableIndex
		dir        string
		setup      []float64
		build, cal []float64
		dirs       []string
		heapBefore float64
	)
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	names := []string{}
	for i := 0; i < setupRepeats; i++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				return nil, fmt.Errorf("closing server: %w", err)
			}
		}
		ds, sv = nil, nil
		runtime.GC()
		var err error
		if dir, err = cfg.scratchDir("wal-"); err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		t0 := time.Now()
		ds = datagen.Perfmon(writeRows, cfg.seed)
		tData := time.Now()
		if i == setupRepeats-1 { // untimed: the heap holding the generated data
			heapBefore = liveHeap()
		}
		tResume := time.Now()
		small := datagen.Perfmon(writeCalRows, cfg.seed+3)
		t1 := time.Now()
		model, err := flood.Calibrate(small.Table, datagen.StandardWorkload(small, 40, cfg.seed+4), &flood.Options{Seed: cfg.seed})
		if err != nil {
			return nil, fmt.Errorf("calibrating: %w", err)
		}
		t2 := time.Now()
		names = ds.Table.Names()
		base, err := flood.BuildWithLayout(ds.Table, pinnedPerfmon.layout, &flood.Options{Schema: int64Schema(names)})
		if err != nil {
			return nil, fmt.Errorf("building pinned layout: %w", err)
		}
		t3 := time.Now()
		d, err := flood.CreateDurable(dir, base, &flood.DurableOptions{
			Sync: flood.SyncAlways,
			Adaptive: &flood.AdaptiveConfig{
				Build: &flood.Options{CostModel: model, Seed: cfg.seed},
				Seed:  cfg.seed,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("creating durable store: %w", err)
		}
		if sv, err = startServing(server.NewDurable(d, nil)); err != nil {
			return nil, err
		}
		store = d
		t4 := time.Now()
		setup = append(setup, (tData.Sub(t0) + t4.Sub(tResume)).Seconds())
		cal = append(cal, t2.Sub(t1).Seconds())
		build = append(build, t3.Sub(t2).Seconds())
		root := cfg.tr.add("bench.setup", t0, t4, -1, 0)
		cfg.tr.add("datagen.Perfmon", t0, tData, root, 0)
		cfg.tr.add("datagen.Perfmon", tResume, t1, root, 0)
		cfg.tr.add("costmodel.Calibrate", t1, t2, root, 0)
		cfg.tr.add("flood.BuildWithLayout", t2, t3, root, 0)
		cfg.tr.add("flood.CreateDurable+server.start", t3, t4, root, 0)
	}
	stopped := false
	defer func() {
		if !stopped {
			sv.close()
		}
	}()
	res.e2e["setup_s"] = median(setup)
	res.layer["core.build_s"] = median(build)
	res.layer["costmodel.calibrate_s"] = median(cal)
	res.e2e["heap_bytes_per_row"] = (liveHeap() - heapBefore) / writeRows
	res.note("setup_s samples %v", setup)

	// Base rows per day, for the expected result of each retention delete.
	perDay := make([]int64, 365)
	for _, t := range ds.Cols[0] {
		perDay[t/day]++
	}

	// The operation sequence: the ingest phase's mix, the same for every
	// seed so that every run merges at the same points, then reads over
	// windows of the ingested data, drawn from the seed, for the read open
	// loop and the closed loop.
	ingest, blocks := writePhases(cfg.seconds)
	openPart := writeBlock * 6 / 10
	nIngest := int(writeRate * ingest.Seconds())
	nOpen := int(writeReadRate * openPart.Seconds()) // per block
	// Room for closed loops 50x the open rate.
	total := nIngest + blocks*(nOpen+int(writeReadRate*(writeBlock-openPart).Seconds()*50))
	if nIngest/writeDeleteGap >= len(perDay)-1 {
		return nil, fmt.Errorf("%d operations would delete the base's last day, which the reads cover", nIngest)
	}
	rng := rand.New(rand.NewSource(cfg.seed + 5))
	kind := make([]uint8, total)
	batchOf := make([]int, total) // insert: its batch; read: batches issued before it
	var insertOp []int            // batch -> the operation that inserts it
	batches := 0
	for k := 0; k < nIngest; k++ {
		switch {
		case k%writeDeleteGap == writeDeleteGap-1:
			kind[k] = opDelete
		case k*writeInsertPct%100 < writeInsertPct: // evenly spread, same for every seed
			kind[k] = opInsert
		default:
			kind[k] = opRead
		}
		batchOf[k] = batches
		if kind[k] == opInsert {
			insertOp = append(insertOp, k)
			batches++
		}
	}
	for k := nIngest; k < total; k++ {
		kind[k] = opRead
		batchOf[k] = 1 + rng.Intn(max(batches, 1))
	}

	replies := make([]writeReply, total)
	var wrongDeletes atomic.Int64
	do := func(k int, t timing) {
		if k >= total {
			return
		}
		r := writeReply{kind: kind[k], counted: true}
		var code int
		var err error
		var qr server.QueryResponse
		switch kind[k] {
		case opInsert:
			var ir server.InsertResponse
			code, err = sv.post("/insert", insertBody(cfg.seed, batchOf[k]), &ir)
			r.acked = ir.Inserted
			r.ok = err == nil && code == http.StatusOK && ir.Inserted == writeBatch
		case opDelete:
			dd := k / writeDeleteGap
			sql := fmt.Sprintf("DELETE FROM t WHERE time BETWEEN %d AND %d", dd*day, dd*day+day-1)
			qr, code, err = sv.query(sql)
			r.ok = err == nil && code == http.StatusOK
			if r.ok && qr.Affected != perDay[dd] {
				wrongDeletes.Add(1)
			}
		default:
			q, a := recentWindow(cfg.seed, k, batchOf[k], len(names))
			qr, code, err = sv.query(render(q, names, a))
			r.ok = err == nil && code == http.StatusOK
			r.value, r.matched = qr.Value, qr.Matched
		}
		t.done = time.Now()
		r.t = t
		r.queue = time.Duration(qr.QueueMicros) * time.Microsecond
		r.served = time.Duration(qr.ElapsedMicros) * time.Microsecond
		if cfg.trace {
			r.traced = requestSpans(cfg.tr, []string{"bench.read", "bench.insert", "bench.delete"}[r.kind], k, t, r.queue, r.served)
		}
		r.busy = time.Since(t.sent)
		replies[k] = r
	}

	// A traced run polls /stats for the adaptive lifecycle during ingest.
	var (
		pendingMax  int
		rebuildTime time.Duration
		stopPoll    = make(chan struct{})
		pollDone    = make(chan struct{})
	)
	go func() {
		defer close(pollDone)
		if !cfg.trace {
			return
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-stopPoll:
				return
			case now := <-tick.C:
				if st, err := sv.stats(); err == nil {
					pendingMax = max(pendingMax, st.PendingRows)
					if st.Rebuilding {
						rebuildTime += now.Sub(last)
					}
				}
				last = now
			}
		}
	}()
	stopPolling := sync.OnceFunc(func() {
		close(stopPoll)
		<-pollDone
	})
	defer stopPolling()

	var lag samples
	ingestStart := time.Now()
	openLoop(ingestStart, nIngest, writeRate, do)
	if err := quiesce(sv); err != nil {
		return nil, err
	}
	// How many merges ingest ran, and so how much it left in the insert
	// log, depends on how fast the host ran the background rebuilds. A
	// final merge folds the rest in, so the reads below run over the same
	// store in every run: the pinned layout over the base's live rows and
	// every acknowledged batch. The adaptive.* metrics cover ingest only.
	stopPolling()
	left, err := sv.stats()
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}
	store.Adaptive().TriggerMerge()
	if err := quiesce(sv); err != nil {
		return nil, err
	}
	runtime.GC() // ingest's garbage is not the reads' to collect
	readStart := time.Now()
	type block struct{ open, closed [2]int } // operation index ranges
	var reads []block
	for next := nIngest; len(reads) < blocks; {
		b := block{open: [2]int{next, next + nOpen}}
		openLoop(time.Now(), nOpen, writeReadRate, func(k int, t timing) {
			if cfg.trace {
				cfg.tr.setActive(time.Since(readStart)/traceBlock%2 == 0)
			}
			do(b.open[0]+k, t)
		})
		cfg.tr.setActive(true)
		n := closedLoop(time.Now(), writeBlock-openPart, b.open[1], do)
		b.closed = [2]int{b.open[1], b.open[1] + n}
		if next = b.closed[1]; next > total {
			return nil, fmt.Errorf("closed loops outran their %d-operation sequence", total-nIngest)
		}
		reads = append(reads, b)
	}
	if err := quiesce(sv); err != nil {
		return nil, err
	}
	st, err := sv.stats()
	if err != nil {
		return nil, fmt.Errorf("reading /stats: %w", err)
	}

	// Latencies, failures, and the client-side record of the live rows.
	var ingestReads, writes, inserts, transport, service, queue, traced, plain samples
	live := map[int]int64{}     // batch -> acknowledged rows
	deleted := map[int64]bool{} // acknowledged retention deletes, by day
	var acked int64
	for k, r := range replies {
		if !r.counted {
			continue
		}
		res.attempted++
		switch r.kind {
		case opInsert:
			live[batchOf[k]] = r.acked
			acked += r.acked
		case opDelete:
			if r.ok {
				deleted[int64(k/writeDeleteGap)] = true
			}
		}
		if !r.ok {
			res.failed++
			continue
		}
		if k >= nIngest { // reads after ingest: by block, below
			continue
		}
		lat, rtt := r.t.done.Sub(r.t.due), r.t.done.Sub(r.t.sent) // from due, from send
		lag.add(r.t.sent.Sub(r.t.due))
		switch r.kind {
		case opRead:
			ingestReads.add(lat)
			transport.add(rtt - r.queue - r.served)
			service.add(r.served)
			queue.add(r.queue)
		case opInsert:
			writes.add(lat)
			inserts.add(rtt)
		default:
			writes.add(lat)
		}
	}
	open, closed := newWindows(blocks), newWindows(blocks)
	nClosed := 0
	for i, b := range reads {
		for k := b.open[0]; k < b.open[1]; k++ {
			if r := replies[k]; r.ok {
				open.add(i, r.t.due, r.t.done.Sub(r.t.due))
				if r.traced {
					traced.add(r.busy)
				} else {
					plain.add(r.busy)
				}
			}
		}
		for k := b.closed[0]; k < b.closed[1]; k++ {
			if r := replies[k]; r.ok {
				closed.add(i, r.t.due, r.t.done.Sub(r.t.due))
			}
		}
		nClosed += b.closed[1] - b.closed[0]
	}
	res.failed += wrongDeletes.Load()
	res.wrong += wrongDeletes.Load()
	if st.InsertedRows != acked {
		res.wrong++
		res.failed++
		res.note("server counted %d inserted rows, clients acknowledged %d", st.InsertedRows, acked)
	}
	readChecks, badReads := checkReads(cfg.seed, newOracle(ds.Cols), replies, batchOf, insertOp, len(names))
	res.failed += badReads
	res.wrong += badReads
	checks, bad, err := verifyWrite(sv, ds.Cols, cfg.seed, live, deleted, names)
	if err != nil {
		return nil, err
	}
	res.attempted += checks
	res.failed += bad
	res.wrong += bad

	res.e2e["p50_us"] = open.quantile(0.5)
	res.e2e["p90_us"] = open.quantile(0.9)
	res.layer["bench.p99_us"] = open.overall(0.99)
	res.e2e["qps"] = closed.rate()
	res.note("ingest: %d operations at %.0f/s over %d connections (%d reads, %d writes); %d rows acknowledged, %d days deleted, %d merges, %d relearns; %d rows left in the insert log, merged before the reads",
		nIngest, writeRate, clients, len(ingestReads), len(writes), acked, len(deleted), left.Merges, left.Relearns, left.PendingRows)
	res.note("reads after ingest: %d blocks of %v, each an open loop of %d reads at %.0f/s timed from scheduled send (at least %d answered in every block) and then a closed loop with %d clients (%d reads in all); p50, p90 and qps are medians over blocks",
		blocks, writeBlock, nOpen, writeReadRate, open.minCount(), clients, nClosed)
	res.note("per block: p90 %.0f us; qps %.0f", open.perWindow(0.9), closed.rates())
	res.note("answers: %d reads checked, %d wrong; %d final checks, %d wrong", readChecks, badReads, checks, bad)

	if cfg.trace {
		serverLayer(res, st)
		res.layer["adaptive.merges"] = float64(left.Merges)
		res.layer["serve.read_p50_us"] = ingestReads.quantile(0.5)
		res.layer["serve.read_p99_us"] = ingestReads.quantile(0.99)
		res.layer["serve.write_p50_us"] = writes.quantile(0.5)
		res.layer["serve.write_p99_us"] = writes.quantile(0.99)
		res.layer["server.insert_service_p50_us"] = inserts.quantile(0.5)
		res.layer["server.transport_p50_us"] = transport.quantile(0.5)
		res.layer["server.service_p50_us"] = service.quantile(0.5)
		res.layer["server.queue_wait_us_mean"] = queue.mean()
		res.layer["loadgen.send_lag_p99_us"] = lag.quantile(0.99)
		res.layer["adaptive.pending_rows_max"] = float64(pendingMax)
		res.layer["adaptive.rebuild_s"] = rebuildTime.Seconds()
		res.layer["trace.overhead_pct"] = overheadPct(traced, plain)
		res.layer["durable.wal_bytes_per_row"] = ratio(float64(dirBytes(dir, "wal-")), float64(acked))
		var parse samples
		schema := int64Schema(names)
		for k := 0; k < nIngest; k++ {
			if kind[k] == opRead {
				q, a := recentWindow(cfg.seed, k, batchOf[k], len(names))
				sql := render(q, names, a)
				t0 := time.Now()
				if _, err := floodsql.ParseTyped(sql, schema); err != nil {
					return nil, fmt.Errorf("parsing %q: %w", sql, err)
				}
				parse.add(time.Since(t0))
			}
		}
		res.layer["floodsql.parse_us_mean"] = parse.mean()
	}
	stopped = true
	if err := sv.close(); err != nil {
		return nil, fmt.Errorf("closing durable server: %w", err)
	}
	if cfg.trace {
		liveRows := float64(writeRows + acked)
		for dd := range deleted {
			liveRows -= float64(perDay[dd])
		}
		res.layer["durable.disk_bytes_per_row"] = ratio(float64(dirBytes(dir, "")), liveRows)
	}
	return res, nil
}

// writePhases splits a serve-write run: 40% ingest, the rest in blocks of
// reads (at least one).
func writePhases(seconds float64) (ingest time.Duration, blocks int) {
	total := time.Duration(seconds * float64(time.Second))
	ingest = total * 40 / 100
	return ingest, max(int((total-ingest)/writeBlock), 1)
}

// quiesce waits until the store runs no background rebuild.
func quiesce(sv *serving) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := sv.stats()
		if err != nil {
			return fmt.Errorf("reading /stats: %w", err)
		}
		if !st.Rebuilding {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("background rebuild still running after 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// insertRow is row j of the ingest stream: one sample a second after the
// base year, from a zipfian-looking machine population.
func insertRow(seed int64, j int) []int64 {
	h := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(j))
	machine := int64(h % 200)
	machine = machine * machine / 200 // skewed toward low ids
	cpu := int64(h>>8) % 101
	mem := 20 + int64(h>>16)%81
	var swap int64
	if (h>>24)%100 >= 85 {
		swap = int64(h>>32) % 5000
	}
	load := int64(h>>40) % 2000
	return []int64{writeEpoch + int64(j), machine, cpu, mem, swap, load}
}

// insertBody is the POST /insert body for one batch.
func insertBody(seed int64, batch int) []byte {
	rows := make([][]int64, writeBatch)
	for i := range rows {
		rows[i] = insertRow(seed, batch*writeBatch+i)
	}
	b, _ := json.Marshal(map[string]any{"rows": rows})
	return b
}

// recentWindow is the dashboard read issued as operation k: an aggregate
// over the last hour of data as the client knows it (the rows of every
// batch issued before it), one read in four narrowed to one machine. The
// aggregates are COUNT(*), SUM(cpu) and SUM(mem), all non-decreasing as
// rows arrive, which checkReads relies on.
func recentWindow(seed int64, k, batchesBefore, ncols int) (flood.Query, aggregate) {
	now := int64(writeEpoch + batchesBefore*writeBatch)
	q := flood.NewQuery(ncols).WithRange(0, now-3600, now)
	h := splitmix(uint64(seed) + uint64(k)*0x2545f4914f6cdd1d)
	if h%4 == 0 {
		q = q.WithEquals(1, int64(h>>8)%20)
	}
	return q, aggregate{col: []int{-1, 2, 3}[(h>>16)%3]}
}

// checkReads checks the answer of every read that returned. A read races
// the inserts on the other connection, so its answer is bounded rather
// than fixed: it must count at least the rows of every batch acknowledged
// before the read was sent, and at most the rows of every batch sent
// before its reply arrived — for the matched rows and, every aggregate
// being a COUNT or a SUM of a non-negative column, for the value too.
// After ingest every batch is acknowledged before any read is sent and the
// bounds meet. A stale cached answer falls below the lower bound. The
// windows reach into the base only on its last day, which no retention
// delete removes, so the base part comes from the oracle over the base.
// It returns the number of reads checked and how many were wrong.
func checkReads(seed int64, base *oracle, replies []writeReply, batchOf, insertOp []int, ncols int) (checked, wrong int64) {
	rows := make([][]int64, ncols) // every inserted row, column by column
	for j := 0; j < len(insertOp)*writeBatch; j++ {
		for c, v := range insertRow(seed, j) {
			rows[c] = append(rows[c], v)
		}
	}
	for k, r := range replies {
		if !r.counted || !r.ok || r.kind != opRead {
			continue
		}
		q, a := recentWindow(seed, k, batchOf[k], ncols)
		value, matched := base.answer(q, a)
		lo := [2]int64{value, matched}
		hi := lo
		first := max(q.Ranges[0].Min-writeEpoch, 0)
		last := min(q.Ranges[0].Max-writeEpoch, int64(len(rows[0])-1))
	row:
		for j := first; j <= last; j++ {
			for d := 1; d < ncols; d++ {
				if rg := q.Ranges[d]; rg.Present && (rows[d][j] < rg.Min || rows[d][j] > rg.Max) {
					continue row
				}
			}
			v := int64(1)
			if a.col >= 0 {
				v = rows[a.col][j]
			}
			ins := replies[insertOp[j/writeBatch]]
			if ins.counted && ins.t.sent.Before(r.t.done) {
				hi[0], hi[1] = hi[0]+v, hi[1]+1
			}
			if ins.counted && ins.t.done.Before(r.t.sent) && j%writeBatch < ins.acked {
				lo[0], lo[1] = lo[0]+v, lo[1]+1
			}
		}
		checked++
		if r.value < lo[0] || r.value > hi[0] || r.matched < lo[1] || r.matched > hi[1] {
			wrong++
		}
	}
	return checked, wrong
}

// verifyWrite rebuilds the live rows from the client's record (base rows
// minus deleted days plus acknowledged batches) and checks full-table and
// windowed aggregates over HTTP against the oracle. It returns the number
// of checks and how many disagreed.
func verifyWrite(sv *serving, base [][]int64, seed int64, live map[int]int64, deleted map[int64]bool, names []string) (int64, int64, error) {
	cols := make([][]int64, len(base))
	for r := range base[0] {
		if deleted[base[0][r]/day] {
			continue
		}
		for c := range cols {
			cols[c] = append(cols[c], base[c][r])
		}
	}
	maxTime := int64(writeEpoch)
	for b, n := range live {
		for i := 0; i < int(n); i++ {
			row := insertRow(seed, b*writeBatch+i)
			for c := range cols {
				cols[c] = append(cols[c], row[c])
			}
			maxTime = max(maxTime, row[0])
		}
	}
	o := newOracle(cols)
	var qs []flood.Query
	var aggs []aggregate
	full := flood.NewQuery(len(names)).WithRange(0, 0, maxTime)
	for _, col := range []int{-1, 2, 5} {
		qs, aggs = append(qs, full), append(aggs, aggregate{col: col})
	}
	const windows = 16
	step := (maxTime + 1) / windows
	for w := int64(0); w < windows; w++ {
		q := flood.NewQuery(len(names)).WithRange(0, w*step, (w+1)*step-1)
		for _, col := range []int{-1, 3} {
			qs, aggs = append(qs, q), append(aggs, aggregate{col: col})
		}
	}
	var checks, bad int64
	for i, q := range qs {
		sql := render(q, names, aggs[i])
		qr, code, err := sv.query(sql)
		if err != nil || code != http.StatusOK {
			return 0, 0, fmt.Errorf("final check %q: status %d: %v", sql, code, err)
		}
		value, matched := o.answer(q, aggs[i])
		checks++
		if qr.Value != value || qr.Matched != matched {
			bad++
		}
	}
	return checks, bad, nil
}

// dirBytes sums the sizes of the files in dir whose names start with prefix.
func dirBytes(dir, prefix string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// splitmix is the SplitMix64 finalizer, a cheap deterministic hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
