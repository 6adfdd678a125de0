package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapshotPattern matches the emitted snapshot files: BENCH_<date>.json
// plus same-day sequels BENCH_<date>_<seq>.json.
const snapshotPattern = "BENCH_*.json"

// snapshotKey splits a snapshot file name into its chronological sort key:
// the date prefix plus the numeric same-day sequel (0 for the base file).
// Sequels must compare numerically — lexicographically _10 would sort
// before _2 and the lineage walk would gate the wrong pair.
func snapshotKey(path string) (date string, seq int) {
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	name = strings.TrimPrefix(name, "BENCH_")
	if i := strings.LastIndexByte(name, '_'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 0
}

// newestSnapshots returns the two chronologically newest snapshot paths in
// dir (older first). ok is false when fewer than two exist.
func newestSnapshots(dir string) (older, newer string, ok bool, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, snapshotPattern))
	if err != nil {
		return "", "", false, err
	}
	sort.Slice(paths, func(i, j int) bool {
		di, si := snapshotKey(paths[i])
		dj, sj := snapshotKey(paths[j])
		if di != dj {
			return di < dj
		}
		return si < sj
	})
	if len(paths) < 2 {
		return "", "", false, nil
	}
	return paths[len(paths)-2], paths[len(paths)-1], true, nil
}

// readSnapshot loads one snapshot file.
func readSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// hostDrift reports how two snapshots' host shapes differ, or "" when the
// timing hardware is comparable. GOMAXPROCS and calibration count only
// when both snapshots recorded them — older lineage files predate the
// fields, and uncalibrated wall clock cannot be compared to calibrated
// wall clock at all (that is the one-time migration cost of introducing
// the calibration anchor).
func hostDrift(old, cur Snapshot) string {
	if old.NumCPU != 0 && cur.NumCPU != 0 && old.NumCPU != cur.NumCPU {
		return fmt.Sprintf("NumCPU %d -> %d", old.NumCPU, cur.NumCPU)
	}
	if old.GOMAXPROCS != 0 && cur.GOMAXPROCS != 0 && old.GOMAXPROCS != cur.GOMAXPROCS {
		return fmt.Sprintf("GOMAXPROCS %d -> %d", old.GOMAXPROCS, cur.GOMAXPROCS)
	}
	if (old.Calibration > 0) != (cur.Calibration > 0) {
		return "calibration present in only one snapshot"
	}
	return ""
}

// speedScale is the host-speed correction between two snapshots: how many
// times slower (>1) or faster (<1) the newer host's scalar speed measured.
// 1 when either snapshot predates the calibration field.
func speedScale(old, cur Snapshot) float64 {
	if old.Calibration > 0 && cur.Calibration > 0 {
		return cur.Calibration / old.Calibration
	}
	return 1
}

// compareSnapshots diffs the ZERO-ALLOC benchmark set — the hot paths the
// repo guarantees stay allocation-free — between two snapshots. A
// benchmark regresses when its allocs/op or B/op leave zero or its ns/op
// grows by more than threshold (e.g. 0.10 = 10%). B/op counts on its own:
// a few large allocations spread over many iterations round allocs/op
// down to 0 but still show as bytes. Benchmarks present in only one
// snapshot are skipped: machines differ across snapshots, but a tracked
// benchmark suddenly slower by >threshold on the SAME file lineage is the
// signal ROADMAP lane 4 wants CI to catch.
//
// Wall clock is only compared after correcting for the host: ns/op is
// divided by speedScale (the calibration-loop ratio), so a container that
// simply runs 40% slower today does not read as a 40% code regression.
// When the host shape drifted between the snapshots (hostDrift) — core
// count, GOMAXPROCS, or one side lacking the calibration anchor — ns/op
// growth is returned as a warning instead of a regression: wall clock
// measured on incomparable hosts is advisory. Alloc regressions stay hard
// in every regime: allocs/op and B/op are host-independent.
func compareSnapshots(old, cur Snapshot, threshold float64) (regressions, warnings []string, compared int) {
	drift := hostDrift(old, cur)
	scale := speedScale(old, cur)
	oldByName := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldByName[r.Name] = r
	}
	for _, r := range cur.Results {
		prev, ok := oldByName[r.Name]
		if !ok || prev.AllocsPerOp != 0 {
			continue
		}
		compared++
		if r.AllocsPerOp != 0 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op regressed 0 -> %d", r.Name, r.AllocsPerOp))
		}
		if prev.BytesPerOp == 0 && r.BytesPerOp > 0 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: B/op regressed 0 -> %d", r.Name, r.BytesPerOp))
		}
		adjusted := r.NsPerOp / scale
		if limit := prev.NsPerOp * (1 + threshold); adjusted > limit {
			msg := fmt.Sprintf(
				"%s: ns/op regressed %.0f -> %.0f (+%.1f%%, limit +%.0f%%",
				r.Name, prev.NsPerOp, r.NsPerOp,
				100*(r.NsPerOp/prev.NsPerOp-1), 100*threshold)
			if scale != 1 {
				msg += fmt.Sprintf(", %.0f after %.2fx host-speed correction", adjusted, scale)
			}
			msg += ")"
			if drift != "" {
				warnings = append(warnings, fmt.Sprintf(
					"%s — advisory only: host drifted (%s)", msg, drift))
			} else {
				regressions = append(regressions, msg)
			}
		}
	}
	return regressions, warnings, compared
}

// runDiff is the -diff mode entry point: compare the newest two snapshots
// in dir and return the process exit code (1 on regression).
func runDiff(dir string, threshold float64) int {
	older, newer, ok, err := newestSnapshots(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diff:", err)
		return 1
	}
	if !ok {
		fmt.Printf("diff: fewer than two %s snapshots in %s; nothing to compare\n", snapshotPattern, dir)
		return 0
	}
	oldSnap, err := readSnapshot(older)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diff:", err)
		return 1
	}
	newSnap, err := readSnapshot(newer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diff:", err)
		return 1
	}
	regressions, warnings, compared := compareSnapshots(oldSnap, newSnap, threshold)
	fmt.Printf("diff: %s -> %s: %d zero-alloc benchmarks compared\n",
		filepath.Base(older), filepath.Base(newer), compared)
	if drift := hostDrift(oldSnap, newSnap); drift != "" {
		fmt.Printf("diff: host drifted (%s); ns/op comparisons are advisory\n", drift)
	}
	if scale := speedScale(oldSnap, newSnap); scale != 1 {
		fmt.Printf("diff: host-speed correction %.2fx (calibration %.0f -> %.0f ns/op)\n",
			scale, oldSnap.Calibration, newSnap.Calibration)
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "WARNING:", w)
	}
	if len(regressions) == 0 {
		fmt.Printf("diff: no regressions beyond %.0f%%\n", 100*threshold)
		return 0
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "REGRESSION:", r)
	}
	return 1
}

// snapshotPath picks a non-clobbering file name for a new snapshot: the
// plain BENCH_<date>.json if free, else BENCH_<date>_2.json and so on, so
// multiple snapshots on one day preserve the performance trajectory that
// -diff walks.
func snapshotPath(dir, date string) string {
	base := filepath.Join(dir, "BENCH_"+date+".json")
	path := base
	for seq := 2; ; seq++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path
		}
		path = filepath.Join(dir, fmt.Sprintf("BENCH_%s_%d.json", date, seq))
	}
}
