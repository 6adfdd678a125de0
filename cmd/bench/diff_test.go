package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSnapshotDateUTC: snapshot lineage dates are rendered in UTC no
// matter the host timezone — a CI runner (UTC) and a dev container at
// UTC−5 snapshotting the same instant must produce the SAME date, or the
// BENCH_<date>.json lineage interleaves out of order and -diff gates the
// wrong pair.
func TestSnapshotDateUTC(t *testing.T) {
	// 23:30 on Jul 30 in UTC−5 is already Jul 31 in UTC.
	west := time.FixedZone("UTC-5", -5*60*60)
	at := time.Date(2026, 7, 30, 23, 30, 0, 0, west)
	if got := snapshotDate(at); got != "2026-07-31" {
		t.Errorf("snapshotDate = %q, want the UTC date 2026-07-31", got)
	}
	if got, want := snapshotDate(at), snapshotDate(at.UTC()); got != want {
		t.Errorf("same instant, different dates: %q vs %q", got, want)
	}
}

func TestCompareSnapshots(t *testing.T) {
	old := Snapshot{Results: []Result{
		{Name: "E3DMMPCStep/n=1024", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "E5MOT2DStep/n=256", NsPerOp: 2000, AllocsPerOp: 0},
		{Name: "MOTNetworkPhase/side=1024", NsPerOp: 500, AllocsPerOp: 0},
		{Name: "E12PoolStep/n=256/K=4", NsPerOp: 700, AllocsPerOp: 0},
		{Name: "E4MPCStep/n=256", NsPerOp: 900, AllocsPerOp: 12}, // not zero-alloc: ignored
	}}
	cur := Snapshot{Results: []Result{
		{Name: "E3DMMPCStep/n=1024", NsPerOp: 1099, AllocsPerOp: 0},       // +9.9%: within threshold
		{Name: "E5MOT2DStep/n=256", NsPerOp: 2500, AllocsPerOp: 0},        // +25%: regression
		{Name: "MOTNetworkPhase/side=1024", NsPerOp: 450, AllocsPerOp: 3}, // allocs appeared
		{Name: "E12PoolStep/n=256/K=4", NsPerOp: 700, BytesPerOp: 329},    // bytes appeared, allocs round to 0
		{Name: "E4MPCStep/n=256", NsPerOp: 5000, AllocsPerOp: 12},
		{Name: "Brand/new", NsPerOp: 1, AllocsPerOp: 0}, // no baseline: ignored
	}}
	regs, warns, compared := compareSnapshots(old, cur, 0.10)
	if compared != 4 {
		t.Errorf("compared %d zero-alloc benchmarks, want 4", compared)
	}
	if len(warns) != 0 {
		t.Errorf("same-host comparison produced warnings: %v", warns)
	}
	if len(regs) != 3 {
		t.Fatalf("got %d regressions, want 3: %v", len(regs), regs)
	}
	if !strings.Contains(regs[0], "E5MOT2DStep/n=256") || !strings.Contains(regs[0], "ns/op") {
		t.Errorf("first regression should be the E5 ns/op blowup, got %q", regs[0])
	}
	if !strings.Contains(regs[1], "MOTNetworkPhase/side=1024") || !strings.Contains(regs[1], "allocs/op") {
		t.Errorf("second regression should be the alloc leak, got %q", regs[1])
	}
	if !strings.Contains(regs[2], "E12PoolStep/n=256/K=4") || !strings.Contains(regs[2], "B/op regressed 0 -> 329") {
		t.Errorf("third regression should be the hidden byte growth, got %q", regs[2])
	}
}

func TestCompareSnapshotsClean(t *testing.T) {
	old := Snapshot{Results: []Result{{Name: "A", NsPerOp: 100, AllocsPerOp: 0}}}
	cur := Snapshot{Results: []Result{{Name: "A", NsPerOp: 105, AllocsPerOp: 0}}}
	if regs, _, _ := compareSnapshots(old, cur, 0.10); len(regs) != 0 {
		t.Errorf("within-threshold drift flagged: %v", regs)
	}
}

// TestCompareSnapshotsHostDrift: when the two snapshots were measured on
// different host shapes, ns/op growth demotes to a warning — but an
// allocation regression still fails, because allocs/op does not depend on
// the machine.
func TestCompareSnapshotsHostDrift(t *testing.T) {
	old := Snapshot{NumCPU: 4, GOMAXPROCS: 4, Results: []Result{
		{Name: "A", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "B", NsPerOp: 100, AllocsPerOp: 0},
	}}
	cur := Snapshot{NumCPU: 1, GOMAXPROCS: 1, Results: []Result{
		{Name: "A", NsPerOp: 300, AllocsPerOp: 0}, // slower host: advisory
		{Name: "B", NsPerOp: 90, AllocsPerOp: 5},  // alloc leak: still hard
	}}
	regs, warns, compared := compareSnapshots(old, cur, 0.10)
	if compared != 2 {
		t.Errorf("compared = %d, want 2", compared)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "A") || !strings.Contains(warns[0], "host drifted") {
		t.Errorf("ns/op growth under host drift should warn, got warnings %v", warns)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "B") || !strings.Contains(regs[0], "allocs/op") {
		t.Errorf("alloc regression under host drift must stay hard, got regressions %v", regs)
	}

	// GOMAXPROCS-only drift (container pinned below its CPU count) also
	// demotes; a missing (pre-field) GOMAXPROCS does not.
	cur2 := Snapshot{NumCPU: 4, GOMAXPROCS: 1, Results: cur.Results}
	if regs, warns, _ := compareSnapshots(old, cur2, 0.10); len(regs) != 1 || len(warns) != 1 {
		t.Errorf("GOMAXPROCS drift: regs=%v warns=%v, want 1 hard + 1 advisory", regs, warns)
	}
	legacy := Snapshot{NumCPU: 4, Results: old.Results} // no gomaxprocs field
	if d := hostDrift(legacy, Snapshot{NumCPU: 4, GOMAXPROCS: 8}); d != "" {
		t.Errorf("missing legacy GOMAXPROCS treated as drift: %q", d)
	}
	if d := hostDrift(old, cur); !strings.Contains(d, "NumCPU") {
		t.Errorf("hostDrift = %q, want a NumCPU description", d)
	}
}

// TestCompareSnapshotsCalibration pins the host-speed correction: ns/op
// comparisons divide by the calibration-loop ratio, so container weather
// scales out while real code regressions still surface — in both
// directions (a faster host tightens the gate). A snapshot predating the
// calibration field compares advisorily against a calibrated one.
func TestCompareSnapshotsCalibration(t *testing.T) {
	old := Snapshot{NumCPU: 1, GOMAXPROCS: 1, Calibration: 100, Results: []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 0},
	}}
	cur := Snapshot{NumCPU: 1, GOMAXPROCS: 1, Calibration: 200, Results: []Result{
		{Name: "A", NsPerOp: 1900, AllocsPerOp: 0}, // 950 corrected: host weather
		{Name: "B", NsPerOp: 2600, AllocsPerOp: 0}, // 1300 corrected: real regression
	}}
	regs, warns, compared := compareSnapshots(old, cur, 0.10)
	if compared != 2 || len(warns) != 0 {
		t.Errorf("compared=%d warns=%v, want 2 compared and no warnings", compared, warns)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "B") || !strings.Contains(regs[0], "host-speed correction") {
		t.Errorf("want exactly B flagged with the correction shown, got %v", regs)
	}

	// A 2x FASTER host: unchanged raw ns/op means the code got slower.
	fast := Snapshot{NumCPU: 1, GOMAXPROCS: 1, Calibration: 50, Results: []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 0},
	}}
	if regs, _, _ := compareSnapshots(old, fast, 0.10); len(regs) != 1 {
		t.Errorf("flat raw ns/op on a 2x faster host should regress, got %v", regs)
	}

	// Uncalibrated ancestor: wall clock is not comparable, advisory only.
	legacy := Snapshot{NumCPU: 1, Results: old.Results}
	regs, warns, _ = compareSnapshots(legacy, cur, 0.10)
	if len(regs) != 0 || len(warns) != 2 {
		t.Errorf("uncalibrated baseline: regs=%v warns=%v, want all ns/op advisory", regs, warns)
	}
	if d := hostDrift(legacy, cur); !strings.Contains(d, "calibration") {
		t.Errorf("hostDrift = %q, want the one-sided calibration reported", d)
	}
	if d := hostDrift(old, cur); d != "" {
		t.Errorf("both calibrated, same shape: drift %q, want none", d)
	}
}

// TestRunDiffHostDriftFixtures runs -diff over a fixture pair whose newer
// snapshot was measured on a different host shape: its >10% ns/op
// regression must not fail the gate (exit 0, warning only).
func TestRunDiffHostDriftFixtures(t *testing.T) {
	if code := runDiff(filepath.Join("testdata", "hostdrift"), 0.10); code != 0 {
		t.Errorf("runDiff over host-drift fixtures = %d, want 0 (ns/op advisory)", code)
	}
}

// TestRunDiffByteGrowthFixtures runs -diff over a same-host fixture pair
// whose newer snapshot shows B/op leaving zero while allocs/op still
// rounds to 0 and ns/op stays within the threshold: the gate must fail.
func TestRunDiffByteGrowthFixtures(t *testing.T) {
	if code := runDiff(filepath.Join("testdata", "bytegrowth"), 0.10); code != 1 {
		t.Errorf("runDiff over B/op-growth fixtures = %d, want exit code 1", code)
	}
}

// TestNewestSnapshotsOrdering checks the lineage walk over fixture files:
// same-day sequels sort after their base date, before the next day.
func TestNewestSnapshotsOrdering(t *testing.T) {
	older, newer, ok, err := newestSnapshots("testdata")
	if err != nil || !ok {
		t.Fatalf("newestSnapshots: ok=%v err=%v", ok, err)
	}
	if filepath.Base(older) != "BENCH_2026-01-02.json" || filepath.Base(newer) != "BENCH_2026-01-02_2.json" {
		t.Errorf("picked (%s, %s), want the 01-02 pair in base-then-sequel order",
			filepath.Base(older), filepath.Base(newer))
	}
}

// TestRunDiffFixtures runs the full -diff mode over the fixture snapshots,
// which contain a deliberate >10% regression of one zero-alloc benchmark.
func TestRunDiffFixtures(t *testing.T) {
	if code := runDiff("testdata", 0.10); code != 1 {
		t.Errorf("runDiff over regressing fixtures = %d, want exit code 1", code)
	}
	if code := runDiff("testdata", 0.60); code != 0 {
		t.Errorf("runDiff with a 60%% threshold = %d, want 0", code)
	}
	empty := t.TempDir()
	if code := runDiff(empty, 0.10); code != 0 {
		t.Errorf("runDiff over an empty dir = %d, want 0", code)
	}
}

// TestSnapshotPathNonClobbering: same-day snapshots get sequel names.
func TestSnapshotPathNonClobbering(t *testing.T) {
	dir := t.TempDir()
	p1 := snapshotPath(dir, "2026-07-29")
	if filepath.Base(p1) != "BENCH_2026-07-29.json" {
		t.Fatalf("first snapshot named %s", filepath.Base(p1))
	}
	if err := os.WriteFile(p1, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := snapshotPath(dir, "2026-07-29")
	if filepath.Base(p2) != "BENCH_2026-07-29_2.json" {
		t.Fatalf("second snapshot named %s, want BENCH_2026-07-29_2.json", filepath.Base(p2))
	}
	if err := os.WriteFile(p2, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if p3 := snapshotPath(dir, "2026-07-29"); filepath.Base(p3) != "BENCH_2026-07-29_3.json" {
		t.Fatalf("third snapshot named %s, want BENCH_2026-07-29_3.json", filepath.Base(p3))
	}
}

// TestSnapshotKeyOrdering pins the chronological ordering the -diff
// lineage walk relies on, including double-digit sequels (numerically
// _10 > _2, even though lexicographically it is not).
func TestSnapshotKeyOrdering(t *testing.T) {
	ordered := []string{
		"BENCH_2026-07-29.json",
		"BENCH_2026-07-29_2.json",
		"BENCH_2026-07-29_10.json",
		"BENCH_2026-07-30.json",
	}
	for i := 1; i < len(ordered); i++ {
		da, sa := snapshotKey(ordered[i-1])
		db, sb := snapshotKey(ordered[i])
		if !(da < db || (da == db && sa < sb)) {
			t.Errorf("%s must sort before %s (got keys %s/%d vs %s/%d)",
				ordered[i-1], ordered[i], da, sa, db, sb)
		}
	}
}

// TestNewestSnapshotsDoubleDigitSequel: with 10+ same-day snapshots the
// lineage walk must pick _9 and _10, not a lexicographic pair.
func TestNewestSnapshotsDoubleDigitSequel(t *testing.T) {
	dir := t.TempDir()
	names := []string{"BENCH_2026-07-29.json"}
	for seq := 2; seq <= 10; seq++ {
		names = append(names, fmt.Sprintf("BENCH_2026-07-29_%d.json", seq))
	}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	older, newer, ok, err := newestSnapshots(dir)
	if err != nil || !ok {
		t.Fatalf("newestSnapshots: ok=%v err=%v", ok, err)
	}
	if filepath.Base(older) != "BENCH_2026-07-29_9.json" || filepath.Base(newer) != "BENCH_2026-07-29_10.json" {
		t.Errorf("picked (%s, %s), want (_9, _10)", filepath.Base(older), filepath.Base(newer))
	}
}
