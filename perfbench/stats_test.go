package main

import (
	"slices"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100) // 1..100, shuffled order
	for i := range xs {
		xs[i] = float64((i*37)%100 + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 samples = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4 samples = %g, want the lower middle 2", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestJoinFIFO(t *testing.T) {
	ms := int64(1e6)
	due := [][]int64{
		{0, 1 * ms, 2 * ms, 9 * ms}, // credit 3 is due after the window
		{1 * ms, 3 * ms},
	}
	done := [][]int64{
		{2 * ms, 2 * ms, 5 * ms, 10 * ms}, // credits 0 and 1 ran in one round
		{4 * ms},                          // credit 1 never ran
	}
	got, unserved := joinFIFO(due, done, 0, 8*ms)
	lat := latencies(got)
	slices.Sort(lat)
	if want := []float64{1, 2, 3, 3}; !slices.Equal(lat, want) {
		t.Errorf("latencies %v, want %v", lat, want)
	}
	if unserved != 1 {
		t.Errorf("unserved %d, want 1", unserved)
	}
	if got, _ := joinFIFO(due, done, 2*ms, 3*ms); !slices.Equal(got, []sample{{2 * ms, 3}}) {
		t.Errorf("window [2ms,3ms) joined %v, want only tenant 0's credit 2", lat)
	}
}

func TestClosedLoopCredits(t *testing.T) {
	// Window 2, one tenant served in rounds 1, 3 and 4.
	roundEnd := []int64{10e6, 20e6, 30e6, 40e6, 50e6}
	due, done, submit := closedLoopCredits([][]int32{{1, 3, 4}}, roundEnd, 5e6, 2)
	// Credits 0 and 1 are due at the start; credit 2 when credit 0's slot
	// freed (end of round 1), credit 3 at the end of round 3, credit 4 at
	// the end of round 4.
	if want := []int64{5e6, 5e6, 20e6, 40e6, 50e6}; !slices.Equal(due[0], want) {
		t.Errorf("due %v, want %v", due[0], want)
	}
	if want := []int64{20e6, 40e6, 50e6}; !slices.Equal(done[0], want) {
		t.Errorf("done %v, want %v", done[0], want)
	}
	// Credit 2 was admitted in round 2 (ends 30 ms, due 20 ms): 10 ms.
	// Credits 0 and 1 were admitted before the run and have no submit time.
	if want := []sample{{20e6, 10}}; !slices.Equal(submit, want) {
		t.Errorf("submit %v, want %v", submit, want)
	}
	got, unserved := joinFIFO(due, done, 0, 60e6)
	lat := latencies(got)
	slices.Sort(lat)
	if want := []float64{15, 30, 35}; !slices.Equal(lat, want) || unserved != 2 {
		t.Errorf("done latencies %v unserved %d, want %v and 2 (credits 3 and 4 still queued)", lat, unserved, want)
	}
}

func TestOpenLoopDue(t *testing.T) {
	start, end := int64(5), int64(5+3*int64(1e6))
	var due []int64
	for i := int64(0); ; i++ {
		d, ok := openLoopDue(start, end, i)
		if !ok {
			break
		}
		due = append(due, d)
	}
	if want := []int64{5, 5 + 1e6, 5 + 2e6}; !slices.Equal(due, want) {
		t.Errorf("due %v, want %v at %d/s", due, want, httpRate)
	}
}

func TestSpanRate(t *testing.T) {
	sec := int64(1e9)
	if got := spanRate([]int64{-1, 0, sec / 2, sec, 2 * sec}, 0, 2*sec); got != 2 {
		t.Errorf("span rate %g/s, want 2 (three events in [0, 2s) spaced 0.5 s)", got)
	}
	if got := spanRate([]int64{5}, 0, sec); got != 0 {
		t.Errorf("span rate of one event %g, want 0", got)
	}
}

func TestSliceMedian(t *testing.T) {
	sec := int64(1e9)
	// Two seconds, four slices: three at a fast speed (1 ms) and one slow
	// (3 ms), with a few outliers in every slice.
	var ss []sample
	for at := int64(0); at < 2*sec; at += sec / 100 {
		v := 1.0
		if at >= sec && at < sec+sec/2 {
			v = 3
		}
		if at%(sec/10) == 0 {
			v *= 10
		}
		ss = append(ss, sample{at, v})
	}
	ss = append(ss, sample{-1, 99}, sample{2 * sec, 99}) // outside the window
	if got := sliceMedian(ss, 0, 2*sec); got != 1.5 {
		t.Errorf("slice median %g, want (1+1+3+1)/4 = 1.5", got)
	}
	if got := median(latencies(ss)); got != 1 {
		t.Errorf("plain median %g, want 1: it ignores the slow quarter", got)
	}
	if got := sliceMedian(ss, 0, sec/4); got != 1 {
		t.Errorf("a window shorter than a slice is one slice: got %g", got)
	}
	if got := sliceMedian(nil, 0, sec); got != 0 {
		t.Errorf("no samples: got %g, want 0", got)
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}, {start: 60, end: 60}}
	if got := covered(parent, kids); got != 40 { // [10,40) and [90,100)
		t.Errorf("covered = %d, want 40", got)
	}
	rows := aggregate([]span{
		{id: 1, name: "round", start: 0, end: 100},
		{id: 2, parent: 1, name: "next", start: 10, end: 30},
		{id: 3, parent: 1, name: "next", start: 50, end: 60},
	})
	if r := rows["round"]; r.total != 100 || r.self != 70 {
		t.Errorf("round total %d self %d, want 100 and 70", r.total, r.self)
	}
	if r := rows["next"]; r.count != 2 || r.total != 30 || r.self != 30 {
		t.Errorf("next count %d total %d self %d, want 2, 30, 30", r.count, r.total, r.self)
	}
}

func TestDeriveSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 8; i++ {
			d := derive(seed, i)
			if d <= 0 || d != derive(seed, i) || seen[d] {
				t.Fatalf("derive(%d, %d) = %d: want positive, repeatable and distinct", seed, i, d)
			}
			seen[d] = true
		}
	}
}
