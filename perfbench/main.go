// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the public surface of the flood module, checks every
// answer against an independent brute-force oracle, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run records spans around every layer call and prints the per-layer
// metrics instead (see README.md in this directory).
//
//	bash perfbench/run.sh --workload olap --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 5
	// traceBlock is how long a traced run records before switching
	// recording off for the same time, to measure the tracing overhead.
	traceBlock = 250 * time.Millisecond
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	root    string // checkout root; scratch files go under root/.bench_build
	tr      *tracer
}

// scratchDir returns a fresh directory under the checkout's build area.
func (c *config) scratchDir(prefix string) (string, error) {
	base := filepath.Join(c.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}

// result is what a workload reports. Every key of e2e and layer must be
// one of the names in endToEnd / perLayer.
type result struct {
	attempted int64
	failed    int64 // errors, shed, timeouts and wrong answers
	wrong     int64 // wrong answers (subset of failed)
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string // human-readable lines: sample counts, layouts, self times
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metric names one reported value and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports all
// of them (BENCHMARK.json lists the same names; metrics_test.go checks).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"qps", "1/s"},
	{"heap_bytes_per_row", "B"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// exercise reports 0.
var perLayer = []metric{
	{"core.project_us_mean", "us"},
	{"core.refine_us_mean", "us"},
	{"core.scan_us_mean", "us"},
	{"core.cells_per_query", "count"},
	{"core.ranges_per_query", "count"},
	{"core.refined_per_query", "count"},
	{"core.scanned_per_match", "ratio"},
	{"core.ns_per_scanned_row", "ns"},
	{"core.build_s", "s"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.transport_p50_us", "us"},
	{"server.service_p50_us", "us"},
	{"server.batch_avg", "count"},
	{"server.queue_wait_us_mean", "us"},
	{"server.shed", "count"},
	{"server.timeouts", "count"},
	{"server.insert_service_p50_us", "us"},
	{"floodsql.parse_us_mean", "us"},
	{"loadgen.send_lag_p99_us", "us"},
	{"bench.p99_us", "us"},
	{"serve.read_p50_us", "us"},
	{"serve.read_p99_us", "us"},
	{"serve.write_p50_us", "us"},
	{"serve.write_p99_us", "us"},
	{"durable.wal_bytes_per_row", "B"},
	{"durable.disk_bytes_per_row", "B"},
	{"adaptive.pending_rows_max", "count"},
	{"adaptive.merges", "count"},
	{"adaptive.relearns", "count"},
	{"adaptive.rebuild_s", "s"},
	{"costmodel.calibrate_s", "s"},
	{"optimizer.search_s", "s"},
	{"optimizer.scanned_per_match", "ratio"},
	{"optimizer.prediction_ratio", "ratio"},
	{"shard.build_s", "s"},
	{"shard.scanned_vs_flat", "ratio"},
	{"shard.visited_per_query", "count"},
	{"shard.skew", "ratio"},
	{"bench.error_rate", "ratio"},
	{"trace.overhead_pct", "%"},
}

// workload runs one benchmark workload.
type workload func(cfg *config) (*result, error)

var workloads = map[string]workload{
	"olap":        runOLAP,
	"serve-write": runServeWrite,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: olap, serve-write")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		root    = flag.String("root", ".", "checkout root (scratch files go under .bench_build)")
		commit  = flag.String("commit", "unknown", "commit stamped into the output")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, tr: newTracer(*trace == 1)}

	env := environment(*commit, *name, *seed, *trace)
	stamp, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", stamp)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if res.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation attempted\n", *name)
		os.Exit(1)
	}
	res.layer["bench.error_rate"] = float64(res.failed) / float64(res.attempted)
	for _, m := range perLayer { // a layer the workload does not run reports 0
		if _, ok := res.layer[m.name]; !ok {
			res.layer[m.name] = 0
		}
	}
	if cfg.trace {
		spansFile, err := cfg.tr.write(filepath.Join(cfg.root, ".bench_build", "traces"), *name, *seed, stamp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		res.notes = append(res.notes, cfg.tr.selfTimes()...)
		res.note("%d spans written to %s", cfg.tr.len(), spansFile)
	}

	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	want, got := endToEnd, res.e2e
	if cfg.trace {
		want, got = perLayer, res.layer
	}
	out := map[string]any{}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", *name, m.name)
			os.Exit(1)
		}
		fmt.Printf("%-34s %16.4f %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	fmt.Printf("%-34s %16d\n%-34s %16d\n%-34s %16.6f\n", "attempted", res.attempted, "failed", res.failed,
		"error_rate", float64(res.failed)/float64(res.attempted))
	line, _ := json.Marshal(map[string]any{
		"correct":   res.wrong == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment is the stamp printed ahead of every result.
func environment(commit, name string, seed int64, trace int) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux only).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
