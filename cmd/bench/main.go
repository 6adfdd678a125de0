// Command bench is the snapshot runner of the benchmark registry
// (internal/benchsuite, which the root bench_test.go also runs): it runs
// every registry point with testing.Benchmark and emits a BENCH_<date>.json
// snapshot: wall-clock ns/op, allocs/op and B/op per point, plus the
// simulated-time counters (phases, network cycles, copy accesses) of the
// point's warm-up step, alongside a host calibration. The JSON seeds the
// repo's performance trajectory — successive PRs append snapshots and diff
// them.
//
// It also implements the snapshot-lineage regression gate (ROADMAP lane 4):
//
//	go run ./cmd/bench -diff [-out DIR] [-threshold 0.10]
//
// compares the newest two BENCH_<date>.json snapshots in DIR and exits
// non-zero if any benchmark that was allocation-free in the older snapshot
// started allocating (allocs/op or B/op leaving zero) or slowed down by
// more than the threshold.
//
// Usage:
//
//	go run ./cmd/bench [-out DIR] [-benchtime 1s] [-runs 3] [-diff]
//	                   [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile / -memprofile write pprof profiles of the whole run, for
// drilling into a regression the snapshot lineage surfaced
// (`go tool pprof FILE`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/benchsuite"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// Simulated-time counters of the point's warm-up step (zero for
	// points without a step structure).
	SimTime       int64 `json:"simTime,omitempty"`
	SimPhases     int   `json:"simPhases,omitempty"`
	SimCycles     int64 `json:"simCycles,omitempty"`
	SimCopyAccess int64 `json:"simCopyAccesses,omitempty"`
}

// Snapshot is the emitted file layout. NumCPU and GOMAXPROCS describe the
// host shape the numbers were measured on: -diff compares ns/op only
// advisorily when the shape drifted between two snapshots (a 4-core
// runner and a 1-core container measure parallel sweeps incomparably),
// while allocation regressions stay hard failures — allocs/op is
// host-independent.
type Snapshot struct {
	Date       string `json:"date"`
	GoVersion  string `json:"goVersion"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// Calibration is the minimum ns/op of a fixed pure-CPU reference loop
	// (calibrate), measured alongside the benchmarks. Core counts don't
	// capture how FAST a container is — the same image lands on hosts
	// whose scalar speed differs by tens of percent — so -diff divides
	// ns/op comparisons by the calibration ratio between two snapshots.
	// Snapshots predating the field compare advisorily (see diff.go).
	Calibration float64  `json:"calibrationNsPerOp,omitempty"`
	Results     []Result `json:"results"`
	// Baseline carries the pre-optimization (seed) numbers of the two
	// acceptance benchmarks for easy speedup computation.
	Baseline map[string]float64 `json:"baselineNsPerOp,omitempty"`
}

// seedBaseline records the seed-tree numbers measured before the
// zero-allocation hot-path rewrite (Xeon 2.10GHz, go1.24, -benchtime=2s).
var seedBaseline = map[string]float64{
	"E3DMMPCStep/n=1024": 1828312,
	"E5MOT2DStep/n=256":  13714533,
}

// snapshotDate renders a snapshot's lineage date in UTC: CI runners (UTC)
// and dev containers in other timezones must agree on what "today" is, or
// the BENCH_<date>.json lineage interleaves out of chronological order and
// -diff gates the wrong pair.
func snapshotDate(now time.Time) string { return now.UTC().Format("2006-01-02") }

// benchRuns is how many times each benchmark is repeated; the snapshot
// records the MINIMUM ns/op (and allocs) across repeats. On shared or
// virtualized hosts the distribution of a deterministic benchmark is the
// true cost plus one-sided noise bursts, so the minimum is the stable
// estimator — single-shot numbers swing ±30% and would trip the -diff
// regression gate on machine weather. Settable via -runs.
var benchRuns = 3

// measureMin repeats a benchmark body and keeps the best run.
func measureMin(name string, body func(b *testing.B)) Result {
	var res Result
	for run := 0; run < benchRuns; run++ {
		br := testing.Benchmark(body)
		if br.N == 0 {
			// b.Fatal inside testing.Benchmark yields a zero result instead
			// of aborting; don't let it corrupt the snapshot silently.
			fmt.Fprintf(os.Stderr, "benchmark %s failed (see error above)\n", name)
			os.Exit(1)
		}
		if r := resultOf(name, br); run == 0 || r.NsPerOp < res.NsPerOp {
			res = r
		}
	}
	return res
}

// resultOf converts one benchmark run into a snapshot Result; the
// simulated counters are the metrics the registry point reported.
func resultOf(name string, br testing.BenchmarkResult) Result {
	return Result{
		Name:          name,
		Iterations:    br.N,
		NsPerOp:       float64(br.NsPerOp()),
		AllocsPerOp:   br.AllocsPerOp(),
		BytesPerOp:    br.AllocedBytesPerOp(),
		SimTime:       int64(br.Extra[benchsuite.SimTime]),
		SimPhases:     int(br.Extra[benchsuite.SimPhases]),
		SimCycles:     int64(br.Extra[benchsuite.SimCycles]),
		SimCopyAccess: int64(br.Extra[benchsuite.SimCopies]),
	}
}

// calibrationSink keeps the calibration loop's result observable so the
// compiler cannot delete the loop.
var calibrationSink uint64

// calibrate measures the host's scalar speed: a fixed 32768-round mix64
// loop, pure ALU work with no memory traffic, repeated benchRuns times
// with the minimum kept (same estimator as every other snapshot number).
// The result anchors cross-snapshot ns/op comparisons to the machine the
// numbers were taken on.
func calibrate() float64 {
	return measureMin("calibration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x := uint64(0x9E3779B97F4A7C15)
			for j := 0; j < 1<<15; j++ {
				x ^= x >> 33
				x *= 0xFF51AFD7ED558CCD
				x ^= x >> 29
			}
			calibrationSink = x
		}
	}).NsPerOp
}

func main() {
	testing.Init() // register test.* flags so test.benchtime is settable
	out := flag.String("out", ".", "directory for the BENCH_<date>.json snapshot")
	benchtime := flag.Duration("benchtime", time.Second, "target duration per benchmark")
	diff := flag.Bool("diff", false, "compare the newest two snapshots in -out and exit 1 on zero-alloc regressions")
	threshold := flag.Float64("threshold", 0.10, "ns/op regression tolerance for -diff (0.10 = 10%)")
	runs := flag.Int("runs", benchRuns, "repeats per benchmark; the minimum is recorded")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole benchmark run to FILE")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to FILE after the run")
	flag.Parse()
	if *runs > 0 {
		benchRuns = *runs
	}
	if *diff {
		os.Exit(runDiff(*out, *threshold))
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchtime:", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Println("wrote CPU profile", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				os.Exit(1)
			}
			runtime.GC() // report the retained heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Println("wrote heap profile", *memprofile)
		}()
	}

	snap := Snapshot{
		Date:        snapshotDate(time.Now()),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Calibration: calibrate(),
		Baseline:    seedBaseline,
	}
	fmt.Printf("host calibration: %.0f ns/op\n", snap.Calibration)

	for _, p := range benchsuite.All() {
		snap.Results = append(snap.Results, measureMin(p.Name, p.Run))
	}

	path := snapshotPath(*out, snap.Date)
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
	for _, r := range snap.Results {
		line := fmt.Sprintf("%-28s %12.0f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if base, ok := seedBaseline[r.Name]; ok {
			line += fmt.Sprintf("   %.2fx vs seed", base/r.NsPerOp)
		}
		fmt.Println(line)
	}
}
