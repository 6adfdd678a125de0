package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 < q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. xs
// is sorted in place. An empty sample has no quantile; it reports 0, and
// callers that need a metric to exist check the count first.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sample is one credit's latency in ms, stamped with the credit's due time
// in ns since the run's epoch.
type sample struct {
	at int64
	ms float64
}

// latencies returns the samples' values.
func latencies(ss []sample) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.ms
	}
	return vs
}

// sliceEvery is the width of the slices sliceMedian averages over.
const sliceEvery = int64(500 * time.Millisecond)

// sliceMedian is the mean, over the sliceEvery slices of [from, to), of
// the median of the samples due in each slice (slices without samples are
// skipped). On the reference VM the host switches between a fast and a
// slow speed every few seconds. A plain median over the window jumps
// between the two speeds' latencies as their shares cross one half; this
// estimator moves with the shares instead.
func sliceMedian(ss []sample, from, to int64) float64 {
	n := int(max((to-from)/sliceEvery, 1))
	per := make([][]float64, n)
	for _, s := range ss {
		if s.at >= from && s.at < to {
			i := min(int((s.at-from)/sliceEvery), n-1)
			per[i] = append(per[i], s.ms)
		}
	}
	var sum float64
	var k int
	for _, vs := range per {
		if len(vs) > 0 {
			sum += median(vs)
			k++
		}
	}
	if k == 0 {
		return 0
	}
	return sum / float64(k)
}

// spanRate is the event rate across [from, to): the events in it, less
// one, over the time between the first and the last of them.
func spanRate(at []int64, from, to int64) float64 {
	n, first, last := 0, to, from
	for _, t := range at {
		if t >= from && t < to {
			n++
			first, last = min(first, t), max(last, t)
		}
	}
	if n < 2 || last == first {
		return 0
	}
	return float64(n-1) / (float64(last-first) / 1e9)
}

// joinFIFO pairs each tenant's credits with the steps that served them.
// Queues are FIFO and every pulled batch consumes exactly one credit, so
// credit k of tenant t is served by t's k-th NextBatch pull: due[t][k] is
// when credit k was due and done[t][k] when the round that pulled it
// ended (both in ns since the run's epoch). Only credits due in [from, to)
// are joined. It returns their latencies and how many of them were never
// served.
func joinFIFO(due, done [][]int64, from, to int64) (lat []sample, unserved int) {
	for t := range due {
		for k, d := range due[t] {
			if d < from || d >= to {
				continue
			}
			if k >= len(done[t]) {
				unserved++
				continue
			}
			lat = append(lat, sample{d, float64(done[t][k]-d) / 1e6})
		}
	}
	return lat, unserved
}

// closedLoopCredits derives the credit record of a closed-loop run from
// its pull record. pulled[t][k] is the round that served credit k of
// tenant t and roundEnd[r] the end of round r, in ns since the epoch. A
// tenant with window w holds w credits at the start. Every executed step
// frees one slot, which the server refills at the start of the next
// round. So credit k < w is due at start, and credit k ≥ w is due when the
// round that served credit k−w ended. That refill round acknowledges it.
// It returns, per tenant, the due time of every credit refilled so far and
// the done time of every served one, plus the submit latencies (due to
// acknowledged) of the refilled credits.
func closedLoopCredits(pulled [][]int32, roundEnd []int64, start int64, w int) (due, done [][]int64, submit []sample) {
	due = make([][]int64, len(pulled))
	done = make([][]int64, len(pulled))
	for t, rs := range pulled {
		for k := 0; k < w; k++ {
			due[t] = append(due[t], start)
		}
		for k, r := range rs {
			due[t] = append(due[t], roundEnd[r])
			done[t] = append(done[t], roundEnd[r])
			if k >= w {
				a := rs[k-w] + 1 // the round that admitted credit k
				submit = append(submit, sample{due[t][k], float64(roundEnd[a]-due[t][k]) / 1e6})
			}
		}
	}
	return due, done, submit
}

// openLoopDue returns the due time of the i-th open-loop request, one every
// 1/httpRate s from start, and false once it falls at or after end.
func openLoopDue(start, end, i int64) (int64, bool) {
	due := start + i*(int64(time.Second)/httpRate)
	return due, due < end
}
