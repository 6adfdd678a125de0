package mot

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/quorum"
)

// routeAttempts builds a deterministic mixed attempt set like the engine
// emits: ascending processor ids spread over the side roots (several per
// root once k > side), scattered banks.
func routeAttempts(side, k int, dualRail bool, seed int64) []quorum.Attempt {
	rng := rand.New(rand.NewSource(seed))
	banks := side
	if dualRail {
		banks = 2 * side
	}
	attempts := make([]quorum.Attempt, k)
	for i := range attempts {
		attempts[i] = quorum.Attempt{
			Proc:   i * side / k,
			Module: rng.Intn(banks),
			Var:    rng.Intn(4096),
			Copy:   rng.Intn(4),
		}
	}
	return attempts
}

// TestRoutePhaseZeroAllocs locks the router's steady-state zero-allocation
// invariant across placements, policies, dual rail and module capacities,
// at phase sizes that leave the work to the singleton fast path (k=8), to
// both paths (k=64) and to the contended cycle loop (k=256).
func TestRoutePhaseZeroAllocs(t *testing.T) {
	cases := []struct {
		name     string
		pl       Placement
		pol      Policy
		dualRail bool
		capacity int
	}{
		{"leaves-drop", ModulesAtLeaves, DropOnCollision, false, 1},
		{"leaves-queue", ModulesAtLeaves, QueueOnCollision, false, 1},
		{"leaves-drop-dual", ModulesAtLeaves, DropOnCollision, true, 1},
		{"leaves-drop-dual-cap3", ModulesAtLeaves, DropOnCollision, true, 3},
		{"leaves-queue-dual-cap2", ModulesAtLeaves, QueueOnCollision, true, 2},
		{"roots-drop", ModulesAtRoots, DropOnCollision, false, 1},
		{"roots-queue-cap2", ModulesAtRoots, QueueOnCollision, false, 2},
	}
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, k := range []int{8, 64, 256} {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					nw := NewNetwork(64, c.pl, Config{Policy: c.pol, DualRail: c.dualRail, ModuleCapacity: c.capacity})
					attempts := routeAttempts(64, k, c.dualRail, 9)
					for i := 0; i < 3; i++ { // grow the arenas
						nw.RoutePhase(attempts)
					}
					if avg := testing.AllocsPerRun(20, func() {
						nw.RoutePhase(attempts)
					}); avg != 0 {
						t.Errorf("RoutePhase allocates %.1f/op in steady state, want 0", avg)
					}
				})
			}
		})
	}
}

// TestDensePathMatchesEdgeIDs locks the dense edge indexing to the packed
// uint64 edge ids: paths generated both ways must agree position by
// position, with equal dense indices exactly where the packed ids are equal.
func TestDensePathMatchesEdgeIDs(t *testing.T) {
	for _, pl := range []Placement{ModulesAtLeaves, ModulesAtRoots} {
		topo := NewTopology(16, pl)
		rng := rand.New(rand.NewSource(3))
		denseOf := map[uint64]int32{}
		keyOf := map[int32]uint64{}
		check := func(packed []uint64, dense []int32) {
			t.Helper()
			if len(packed) != len(dense) {
				t.Fatalf("path lengths differ: %d vs %d", len(packed), len(dense))
			}
			for i, k := range packed {
				d := dense[i]
				if int64(d) < 0 || int64(d) >= int64(topo.DenseEdgeSpace()) {
					t.Fatalf("dense index %d out of range [0,%d)", d, topo.DenseEdgeSpace())
				}
				if prev, ok := denseOf[k]; ok && prev != d {
					t.Fatalf("packed id %x mapped to dense %d and %d", k, prev, d)
				}
				if prev, ok := keyOf[d]; ok && prev != k {
					t.Fatalf("dense id %d mapped to packed %x and %x", d, prev, k)
				}
				denseOf[k] = d
				keyOf[d] = k
			}
		}
		for trial := 0; trial < 50; trial++ {
			proc, row, col := rng.Intn(16), rng.Intn(16), rng.Intn(16)
			check(topo.requestPath(proc, row, col),
				topo.appendRequestPathDense(nil, proc, row, col))
			if pl == ModulesAtLeaves {
				check(topo.requestPathRowRail(proc, row, col),
					topo.appendRequestPathRowRailDense(nil, proc, row, col))
			}
		}
	}
}

// reverseDense returns the dense index of e traversed in the opposite
// direction: the dir bit sits just above the tree index in denseEdgeID's
// layout, so flipping it moves the index by side·EdgesPerTree.
func reverseDense(t Topology, e int32) int32 {
	block := int32(t.Side * t.EdgesPerTree())
	if (e/block)&1 == dirDown {
		return e + block
	}
	return e - block
}

// TestDensePathLength pins the closed form the singleton fast path relies
// on instead of building the path: every dense request path has exactly
// 2·servicePos() edges, and the reply leg that starts at servicePos() is
// the exact reverse of the request leg — so the edge at servicePos() is
// the first reply edge.
func TestDensePathLength(t *testing.T) {
	cases := []struct {
		name    string
		pl      Placement
		rowRail bool
	}{
		{"leaves", ModulesAtLeaves, false},
		{"leaves-rowrail", ModulesAtLeaves, true},
		{"roots", ModulesAtRoots, false},
	}
	for _, c := range cases {
		for side := 2; side <= 1024; side *= 2 {
			topo := NewTopology(side, c.pl)
			svc := topo.servicePos()
			rng := rand.New(rand.NewSource(int64(side)))
			for trial := 0; trial < 32; trial++ {
				proc, row, col := rng.Intn(side), rng.Intn(side), rng.Intn(side)
				if trial == 0 {
					proc, row, col = side-1, side-1, side-1
				}
				if c.pl == ModulesAtRoots {
					row = 0
				}
				var p []int32
				if c.rowRail {
					p = topo.appendRequestPathRowRailDense(nil, proc, row, col)
				} else {
					p = topo.appendRequestPathDense(nil, proc, row, col)
				}
				if len(p) != 2*svc {
					t.Fatalf("%s side=%d (%d,%d,%d): path length %d, want 2·servicePos() = %d",
						c.name, side, proc, row, col, len(p), 2*svc)
				}
				for j := 0; j < svc; j++ {
					if p[svc+j] != reverseDense(topo, p[svc-1-j]) {
						t.Fatalf("%s side=%d (%d,%d,%d): reply edge %d is not the reverse of request edge %d",
							c.name, side, proc, row, col, svc+j, svc-1-j)
					}
				}
			}
		}
	}
}

// TestPathsBuiltOnlyForContended checks that RoutePhase materializes paths
// for contended packets only: an all-singleton phase leaves the path arena
// empty, and a mixed phase leaves exactly 2·servicePos() entries per packet
// in a component of size ≥ 2.
func TestPathsBuiltOnlyForContended(t *testing.T) {
	const side = 16
	// Distinct processors to distinct banks share no tree and no module.
	singletons := []quorum.Attempt{
		{Proc: 0, Module: 3}, {Proc: 1, Module: 5}, {Proc: 4, Module: 9}, {Proc: 7, Module: 12},
	}
	// Two singletons (banks 3 and 7) plus a pair on bank 5 and a triple on
	// bank 9: the shared column trees make five contended packets.
	mixed := []quorum.Attempt{
		{Proc: 0, Module: 3}, {Proc: 1, Module: 5}, {Proc: 2, Module: 5}, {Proc: 3, Module: 7},
		{Proc: 4, Module: 9}, {Proc: 5, Module: 9}, {Proc: 6, Module: 9},
	}
	const contended = 5
	for _, pl := range []Placement{ModulesAtLeaves, ModulesAtRoots} {
		nw := NewNetwork(side, pl, Config{})
		perPath := 2 * nw.topo.servicePos()
		for i, ph := range []struct {
			attempts []quorum.Attempt
			want     int
		}{{mixed, perPath * contended}, {singletons, 0}, {mixed, perPath * contended}} {
			nw.RoutePhase(ph.attempts)
			if got := len(nw.pathBuf); got != ph.want {
				t.Errorf("%v phase %d: len(pathBuf) = %d, want %d", pl, i, got, ph.want)
			}
		}
	}
}
