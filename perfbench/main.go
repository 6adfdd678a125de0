// Command perfbench is the repository's end-to-end benchmark. It drives the
// real internal/serve stack from outside, through its public functions:
// the harness owns the tenant Sources, calls HTTPServer.Tick or
// Server.Round itself, wraps HTTPServer.Handler, times those calls and
// reads the public counters. See README.md for the workloads, the metrics
// and the layer → metric → workload map.
//
//	go build -o perfbench . && ./perfbench --workload serve-mix --seed 1 --seconds 28 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with --trace 1 the
// per-layer ones). The exit code is 1 when an output check fails and 3
// when the load generator fell behind its schedule (the run is invalid,
// not slow; no result line is printed then).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// engines is the pool size K every workload runs at; procs is the
// GOMAXPROCS the harness pins. The reference host has two CPUs.
const (
	engines = 2
	procs   = 2
)

// A run builds its deployment at least minSetupReps times and until the
// builds have taken minSetupTime, up to maxSetupReps; setup_s is the
// median, so a slow build does not move it and a fast deployment is built
// often enough for its median to hold still.
const (
	minSetupReps = 5
	maxSetupReps = 25
	minSetupTime = int64(time.Second)
)

// report is what a workload run produces. e2e and layer are keyed by the
// names in e2eMetrics and layerMetrics; a name a workload leaves unset
// reports 0.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []error // output-check failures
	invalid   error   // the load generator fell behind its schedule
	rows      map[string]*layerRow
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records an output-check failure.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Errorf(format, args...))
	}
}

// harness is the state a workload run shares with its Source wrappers.
type harness struct {
	seed   int64
	window time.Duration
	epoch  time.Time
	tr     *tracer // nil in untraced runs

	srcs    []*countedSource
	curSpan int64 // span id of the Tick or Round in progress (traced runs)
	paused  int64 // ns the clock was stopped for, see pause
}

// ns returns ns since the run's epoch (monotonic clock), less the time the
// clock was paused.
func (h *harness) ns() int64 { return int64(time.Since(h.epoch)) - h.paused }

// pause runs f with the clock stopped: the time f takes is invisible to
// every later ns reading, so harness work inside a measured window (an
// output-check snapshot) neither shortens the window nor delays credits.
// The interval is recorded as a span named name.
func (h *harness) pause(name string, f func()) {
	start := h.ns()
	f()
	end := h.ns()
	h.tr.add(0, 0, 0, name, start, end)
	h.paused += end - start
}

// derive draws the i-th sub-seed of the workload seed (splitmix64), so the
// map, every tenant stream and the recorded trace follow from one argument.
func derive(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1 // positive and non-zero: seed 0 means "default" to the server
}

var workloads = map[string]func(*harness) (*report, error){
	"http-open":   runHTTPOpen,
	"serve-mix":   runServeMix,
	"serve-mot2d": runServeMOT2D,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "http-open, serve-mix or serve-mot2d")
	seed := fs.Int64("seed", 1, "workload seed: derives the map, tenant streams and recorded trace")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the span file and layer table of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload http-open|serve-mix|serve-mot2d, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	h := &harness{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), epoch: time.Now()}
	if *trace == 1 {
		h.tr = &tracer{}
	}
	host := fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d K=%d go=%s",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), engines, runtime.Version())
	fmt.Fprintln(stdout, "# "+host)

	rep, err := wl(h)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if rep.invalid != nil {
		fmt.Fprintf(stderr, "perfbench: %s: run invalid: %v\n", *name, rep.invalid)
		return 3
	}
	if h.tr != nil {
		rep.layer["trace.spans"] = float64(len(h.tr.spans))
		rep.rows = aggregate(h.tr.spans)
		if err := writeTraceFiles(*outDir, *name, host, h.tr.spans, rep.rows); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		writeLayerTable(stdout, rep.rows)
	}
	// A traced run prints its end-to-end values too: against an untraced
	// run with the same seed they give the tracing overhead.
	for _, m := range e2eMetrics {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", m.name, rep.e2e[m.name], m.unit)
	}
	ms, vals := e2eMetrics, rep.e2e
	if h.tr != nil {
		ms, vals = layerMetrics, rep.layer
		for _, m := range ms {
			fmt.Fprintf(stdout, "%-28s %16.6f %s\n", m.name, vals[m.name], m.unit)
		}
	}
	for _, c := range rep.checks {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %v\n", *name, c)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.checks) == 0, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// writeTraceFiles writes a traced run's spans (one JSON object a line) and
// its layer table.
func writeTraceFiles(dir, workload, host string, spans []span, rows map[string]*layerRow) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, workload)
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintln(&b, "# "+host)
	writeLayerTable(&b, rows)
	return os.WriteFile(base+".layers.txt", []byte(b.String()), 0o644)
}

// cpuTimes returns the host's summed CPU time and its stolen part, in clock
// ticks (the "cpu" line of /proc/stat).
func cpuTimes() (total, steal int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// stealMeter measures the share of CPU time the hypervisor took from this
// machine between start and stop: a host condition, not the program's.
type stealMeter struct{ total, steal int64 }

func (m *stealMeter) start() error {
	var err error
	m.total, m.steal, err = cpuTimes()
	return err
}

func (m *stealMeter) share() (float64, error) {
	total, steal, err := cpuTimes()
	if err != nil || total == m.total {
		return 0, err
	}
	return float64(steal-m.steal) / float64(total-m.total), nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
