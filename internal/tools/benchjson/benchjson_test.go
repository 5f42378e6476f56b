package benchjson

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: exbox/internal/svm
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkRetrainCold-8   	      30	   5681301 ns/op
BenchmarkRetrainWarm-8   	      30	    883932 ns/op
BenchmarkRetrainCold-8   	      30	   5700000 ns/op
BenchmarkRetrainWarm-8   	      30	    900000 ns/op
BenchmarkRetrainWarm-8   	      30	    850000 ns/op
BenchmarkAdmitParallel-8 	 9000000	       133.5 ns/op
BenchmarkDecisionRBF-8   	  300000	      3669 ns/op	       0 B/op	       0 allocs/op
BenchmarkDecisionRBF-8   	  300000	      3700 ns/op	       0 B/op	       0 allocs/op
BenchmarkAdmitInstrumented-8	  250000	      4781 ns/op	      64 B/op	       2 allocs/op
PASS
ok  	exbox/internal/svm	1.386s
`

func TestParseGoBench(t *testing.T) {
	samples, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(samples["BenchmarkRetrainCold"].Ns); got != 2 {
		t.Fatalf("cold samples = %d, want 2", got)
	}
	if got := len(samples["BenchmarkRetrainWarm"].Ns); got != 3 {
		t.Fatalf("warm samples = %d, want 3", got)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	if _, ok := samples["BenchmarkRetrainWarm-8"]; ok {
		t.Fatal("suffixed name leaked through")
	}
	if got := samples["BenchmarkAdmitParallel"].Ns[0]; got != 133.5 {
		t.Fatalf("fractional ns/op = %v, want 133.5", got)
	}
	// Runs without -benchmem carry no alloc samples...
	if got := len(samples["BenchmarkRetrainWarm"].Allocs); got != 0 {
		t.Fatalf("warm alloc samples = %d, want 0", got)
	}
	// ...and -benchmem lines record allocs/op, including measured zero.
	if got := samples["BenchmarkDecisionRBF"].Allocs; len(got) != 2 || got[0] != 0 {
		t.Fatalf("rbf alloc samples = %v, want two zeros", got)
	}
	if got := samples["BenchmarkAdmitInstrumented"].Allocs; len(got) != 1 || got[0] != 2 {
		t.Fatalf("instrumented alloc samples = %v, want [2]", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

func TestSummarize(t *testing.T) {
	sum := Summarize(map[string]*Samples{
		"BenchmarkX": {Ns: []float64{900000, 850000, 883932}},
		"BenchmarkY": {Ns: []float64{100, 120, 110}, Allocs: []float64{0, 0, 0}},
	})
	if e := sum["BenchmarkX"]; e.NsPerOp != 883932 || e.Samples != 3 || e.AllocSamples != 0 {
		t.Fatalf("entry = %+v", e)
	}
	// A measured zero allocs/op must survive as AllocSamples > 0.
	if e := sum["BenchmarkY"]; e.AllocsPerOp != 0 || e.AllocSamples != 3 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := &File{
		Go:     "go1.22",
		Source: "test",
		Benchmarks: map[string]Entry{
			"BenchmarkRetrainWarm": {NsPerOp: 883932, Samples: 5, AllocsPerOp: 0, AllocSamples: 5},
		},
	}
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema {
		t.Fatalf("schema = %q", got.Schema)
	}
	if got.Benchmarks["BenchmarkRetrainWarm"] != f.Benchmarks["BenchmarkRetrainWarm"] {
		t.Fatalf("round trip mismatch: %+v", got.Benchmarks)
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	raw := `{"schema": "other/v9", "benchmarks": {}}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}
