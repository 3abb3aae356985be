// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark runs can be archived (BENCH_scan.json)
// and diffed across commits by CI and future PRs.
//
// Usage:
//
//	go test ./internal/core -bench X -benchmem -run '^$' | go run ./cmd/benchjson > BENCH_scan.json
//
// The input may span several packages; each benchmark records the package
// it ran in and its GOMAXPROCS. -commit REV stamps the document with the
// commit measured.
//
// With -serve FILE, the serving benchmark document written by floodload
// (BENCH_serve.json) is embedded alongside the parsed microbenchmarks, so
// one merged document carries both scan and serving numbers:
//
//	... | go run ./cmd/benchjson -serve BENCH_serve.json > BENCH_all.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in: the `pkg:` header that last
	// preceded its line, since `go test` prints one per package.
	Pkg string `json:"pkg,omitempty"`
	// Procs is GOMAXPROCS during the run, from the -N name suffix; 0 when
	// the name carries none.
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Commit     string      `json:"commit,omitempty"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Serve embeds a floodload serving report (-serve FILE), verbatim.
	Serve json.RawMessage `json:"serve,omitempty"`
}

func main() {
	servePath := flag.String("serve", "", "embed this floodload BENCH_serve.json document in the output")
	commit := flag.String("commit", "", "record this commit, e.g. the output of git rev-parse --short HEAD, in the document")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	rep.Commit = *commit
	if *servePath != "" {
		raw, err := os.ReadFile(*servePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !json.Valid(raw) {
			fmt.Fprintf(os.Stderr, "benchjson: %s is not valid JSON\n", *servePath)
			os.Exit(1)
		}
		rep.Serve = json.RawMessage(raw)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads a `go test -bench` transcript, which may cover several
// packages, and attributes each benchmark to the package it ran in.
func parse(r io.Reader) (Report, error) {
	var rep Report
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// parseLine parses e.g.
//
//	BenchmarkResidualFilterScan-8   25027   49475 ns/op   0 B/op   0 allocs/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, NsPerOp: ns}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		}
	}
	return b, true
}
