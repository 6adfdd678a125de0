package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchsuite"
)

// deletedFamilies are snapshot families whose code is gone: the multi-core
// 2DMOT router lost to the serial one at every measured size and was
// deleted together with its points.
var deletedFamilies = []string{"E5MOT2DStepParallel/", "MOTNetworkPhaseParallel/"}

// newestCommitted loads the newest snapshot committed at the repository
// root, the one the next snapshot is gated against.
func newestCommitted(t *testing.T) Snapshot {
	t.Helper()
	_, newer, ok, err := newestSnapshots(filepath.Join("..", ".."))
	if err != nil || !ok {
		t.Fatalf("no committed snapshot pair: ok=%v err=%v", ok, err)
	}
	snap, err := readSnapshot(newer)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func registry() map[string]benchsuite.Point {
	points := make(map[string]benchsuite.Point)
	for _, p := range benchsuite.All() {
		points[p.Name] = p
	}
	return points
}

// TestRegistryCoversSnapshot: every point of the newest snapshot is still
// produced by the registry, so the next snapshot's -diff compares it.
func TestRegistryCoversSnapshot(t *testing.T) {
	points := registry()
	for _, r := range newestCommitted(t).Results {
		deleted := false
		for _, fam := range deletedFamilies {
			deleted = deleted || strings.HasPrefix(r.Name, fam)
		}
		if _, ok := points[r.Name]; !ok && !deleted {
			t.Errorf("snapshot point %s is not in the registry", r.Name)
		}
	}
}

// TestRegistryZeroAllocPoints runs every point that is allocation-free in
// the newest snapshot for one timed op (-benchtime=1x) after its warm-up:
// it must still read 0 allocs/op and 0 B/op, and its simulated counters
// must equal the snapshot's — the registry builds the snapshot's shapes.
//
// The op sequence is deterministic, so an allocation of the op itself
// shows in every attempt. The runtime's own background work does not:
// post-GC cleanups (the unique package's map sweep) and new worker
// threads allocate now and then, and the process-wide counters charge it
// to whatever op is timed. A point therefore passes when one of three
// attempts reads zero.
func TestRegistryZeroAllocPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	bt := flag.Lookup("test.benchtime").Value
	prev := bt.String()
	if err := bt.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bt.Set(prev) })
	points := registry()
	for _, want := range newestCommitted(t).Results {
		p, ok := points[want.Name]
		if !ok || want.AllocsPerOp != 0 {
			continue
		}
		t.Run(want.Name, func(t *testing.T) {
			var got Result
			for attempt := 0; attempt < 3; attempt++ {
				br := testing.Benchmark(p.Run)
				if br.N != 1 {
					t.Fatalf("ran %d ops, want 1 (did the body fail?)", br.N)
				}
				if got = resultOf(want.Name, br); got.AllocsPerOp == 0 && got.BytesPerOp == 0 {
					break
				}
			}
			if got.AllocsPerOp != 0 || got.BytesPerOp != 0 {
				t.Errorf("%d allocs/op, %d B/op once warmed, want 0 and 0", got.AllocsPerOp, got.BytesPerOp)
			}
			got.Iterations, got.NsPerOp, got.AllocsPerOp, got.BytesPerOp = 0, 0, 0, 0
			want.Iterations, want.NsPerOp, want.BytesPerOp = 0, 0, 0
			if got != want {
				t.Errorf("simulated counters %+v, snapshot has %+v", got, want)
			}
		})
	}
}
