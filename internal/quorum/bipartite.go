package quorum

import (
	"cmp"
	"slices"
)

// CompleteBipartite is the interconnect of the MPC and DMMPC models: every
// processor reaches every memory module directly (K(n,n) resp. K(n,M)), so
// a phase costs one time unit and the only resource limit is per-module
// bandwidth — each module serves at most Bandwidth requests per phase
// (1 in the classical models).
//
// RoutePhase is allocation-free and sort-free in steady state: per-module
// arbitration uses a phase-stamped load table indexed by module id, sized
// on the first phase to the module count of the store an Engine runs it
// over (O(M) like the machine itself) and grown geometrically for direct
// callers.
// Attempts are processed in ascending processor order — the order the
// engine schedules them in — so the first Bandwidth attempts seen per
// module are exactly the lowest-processor ones; unsorted callers are
// detected and sorted first. The returned granted slice is reused across
// calls (see Interconnect).
type CompleteBipartite struct {
	// Bandwidth is the number of copy accesses a module can serve per
	// phase; the MPC/DMMPC definitions use 1.
	Bandwidth int
	// PhaseCost is the simulated duration of a phase (default 1).
	PhaseCost int64

	granted []bool
	order   []int32
	modules int     // module count of the engine's store; sizes the tables
	phase   int64   // stamp: current RoutePhase invocation
	stamp   []int64 // per-module: last phase that touched it
	load    []int32 // per-module: attempts seen this phase
}

// NewCompleteBipartite returns the standard unit-bandwidth interconnect.
func NewCompleteBipartite() *CompleteBipartite {
	return &CompleteBipartite{Bandwidth: 1, PhaseCost: 1}
}

// SetBandwidth implements BandwidthSetter (stage-2 pipelining).
func (cb *CompleteBipartite) SetBandwidth(perPhase int) {
	if perPhase < 1 {
		perPhase = 1
	}
	cb.Bandwidth = perPhase
}

// RoutePhase implements Interconnect: per module, the Bandwidth attempts
// with the lowest processor ids are granted (deterministic priority
// arbitration), the rest are refused and will be retried by the engine.
func (cb *CompleteBipartite) RoutePhase(attempts []Attempt) ([]bool, int64, int) {
	cb.granted = grow(cb.granted, len(attempts))
	granted := cb.granted
	clear(granted)
	bw := cb.Bandwidth
	if bw <= 0 {
		bw = 1
	}
	cost := cb.PhaseCost
	if cost <= 0 {
		cost = 1
	}
	if len(attempts) == 0 {
		return granted, 0, 0
	}
	cb.phase++
	maxModule, sorted := 0, true
	for i, a := range attempts {
		if a.Module > maxModule {
			maxModule = a.Module
		}
		if i > 0 && a.Proc < attempts[i-1].Proc {
			sorted = false
		}
	}
	if len(cb.stamp) <= maxModule {
		// An engine's interconnect knows its store's module count
		// (NewEngine), so its first phase sizes the tables for good; a
		// direct caller grows them geometrically, so a rising module-id
		// ramp settles after O(log M) regrowths instead of one per new
		// maximum. Fresh stamps are zero, which no phase ever matches.
		n := max(2*len(cb.stamp), maxModule+1, cb.modules)
		cb.stamp = make([]int64, n)
		cb.load = make([]int32, n)
	}
	stamp, load := cb.stamp, cb.load
	maxLoad := 0
	serve := func(i int) {
		a := attempts[i]
		if stamp[a.Module] != cb.phase {
			stamp[a.Module] = cb.phase
			load[a.Module] = 0
		}
		load[a.Module]++
		if int(load[a.Module]) <= bw {
			granted[i] = true
		}
		if int(load[a.Module]) > maxLoad {
			maxLoad = int(load[a.Module])
		}
	}
	if sorted {
		for i := range attempts {
			serve(i)
		}
		return granted, cost, maxLoad
	}
	// Rare path: direct callers with unsorted attempts. Arbitrate in
	// ascending (proc, index) order so grants stay deterministic and
	// identical to the engine-ordered case.
	order := grow(cb.order, len(attempts))
	cb.order = order
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if attempts[x].Proc != attempts[y].Proc {
			return cmp.Compare(attempts[x].Proc, attempts[y].Proc)
		}
		return cmp.Compare(x, y)
	})
	for _, i := range order {
		serve(int(i))
	}
	return granted, cost, maxLoad
}
