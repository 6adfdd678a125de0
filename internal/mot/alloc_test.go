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
