package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, which names the
// workloads and metrics this program reports.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, have []unitMetric) {
		var got []unitMetric
		for _, m := range listed {
			got = append(got, unitMetric{m.Name, m.Unit})
		}
		if !slices.Equal(got, have) {
			t.Errorf("%s metrics in BENCHMARK.json:\n%v\nprogram reports:\n%v", kind, got, have)
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics)
	check("per_layer", bf.PerLayer, layerMetrics)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestSmoke runs every workload for a fraction of a second, untraced and
// traced, and checks that each run passes its output checks and reports
// every metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full deployments")
	}
	for _, wl := range []string{"http-open", "serve-mix", "serve-mot2d"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "7", "--seconds", "0.4",
					"--trace", trace, "--out", dir}, &stdout, &stderr)
				if code == 3 && raceEnabled {
					t.Skipf("load generator fell behind under the race detector: %s", stderr.String())
				}
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := e2eMetrics
				if trace == "1" {
					want = layerMetrics
					for _, f := range []string{wl + ".spans.jsonl", wl + ".layers.txt"} {
						if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
							t.Errorf("traced run wrote no %s: %v", f, err)
						}
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-mix", "--seconds", "0"},
		{"--workload", "serve-mix", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || strings.Contains(stdout.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}

// TestPauseStopsClock checks that time spent in a pause is invisible to
// later clock readings and is recorded as a span of its own.
func TestPauseStopsClock(t *testing.T) {
	h := &harness{epoch: time.Now(), tr: &tracer{}}
	before := h.ns()
	h.pause(spSnapshot, func() { time.Sleep(50 * time.Millisecond) })
	if d := time.Duration(h.ns() - before); d >= 25*time.Millisecond {
		t.Errorf("clock advanced %v over a 50 ms pause, want about 0", d)
	}
	if len(h.tr.spans) != 1 || h.tr.spans[0].name != spSnapshot ||
		time.Duration(h.tr.spans[0].end-h.tr.spans[0].start) < 50*time.Millisecond {
		t.Errorf("pause recorded spans %+v, want one %s span of at least 50 ms", h.tr.spans, spSnapshot)
	}
}
