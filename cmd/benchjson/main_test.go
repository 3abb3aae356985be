package main

import (
	"strings"
	"testing"
)

// A transcript of `go test -bench` over two packages, as `make bench`
// concatenates them: each package prints its own header.
const twoPackages = `goos: linux
goarch: amd64
pkg: flood/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAblationRefinePLM-8      	  330081	      3871 ns/op	       0 B/op	       0 allocs/op
BenchmarkParallelExecute1M/workers2-8         	    7375	    158205 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	flood/internal/core	12.345s
goos: linux
goarch: amd64
pkg: flood/internal/wal
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkWALAppend/sync-never-2      	 1000000	      1021 ns/op	      64 B/op	       1 allocs/op
BenchmarkNoSuffix      	 10	      5.5 ns/op
PASS
ok  	flood/internal/wal	3.210s
`

func TestParseAttributesPackages(t *testing.T) {
	rep, err := parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, pkg string
		procs     int
		ns        float64
	}{
		{"BenchmarkAblationRefinePLM", "flood/internal/core", 8, 3871},
		{"BenchmarkParallelExecute1M/workers2", "flood/internal/core", 8, 158205},
		{"BenchmarkWALAppend/sync-never", "flood/internal/wal", 2, 1021},
		{"BenchmarkNoSuffix", "flood/internal/wal", 0, 5.5},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for i, w := range want {
		b := rep.Benchmarks[i]
		if b.Name != w.name || b.Pkg != w.pkg || b.Procs != w.procs || b.NsPerOp != w.ns {
			t.Errorf("benchmark %d = {%s %s procs=%d %v ns}, want {%s %s procs=%d %v ns}",
				i, b.Name, b.Pkg, b.Procs, b.NsPerOp, w.name, w.pkg, w.procs, w.ns)
		}
	}
	if b := rep.Benchmarks[2]; b.BytesPerOp == nil || *b.BytesPerOp != 64 || b.AllocsPerOp == nil || *b.AllocsPerOp != 1 {
		t.Errorf("WALAppend memory stats = %v B/op, %v allocs/op, want 64 and 1", b.BytesPerOp, b.AllocsPerOp)
	}
	if rep.Benchmarks[3].BytesPerOp != nil {
		t.Errorf("BenchmarkNoSuffix has B/op without -benchmem")
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("header = %q %q %q", rep.Goos, rep.Goarch, rep.CPU)
	}
}
