// The retired array-of-structs reference router. Before the SoA rewrite
// the production cycle loop kept per-packet state in a []packet struct
// array and resolved edge claims with per-packet branching; this file
// preserves those semantics in the most naive form available — heap
// packets, packed uint64 edge ids from the requestPath reference
// generators (NOT the dense indices the production arenas use), map-based
// claim sets and module counters, no singleton fast path, no reused
// buffers — as the independent oracle the SoA core is swept against.
// Living in a _test.go file keeps it out of product builds, the same
// effect as the ignore build tag the retirement called for, while letting
// the differential tests and FuzzRoutePhase import it without ceremony.
package mot

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/quorum"
)

// refPacket is the retired AoS packet: one heap struct per attempt.
type refPacket struct {
	attempt int
	prio    int
	path    []uint64 // packed edge ids (edgeID), not dense indices
	pos     int
	service int
	module  int // grid module id row·side+col
	served  bool
}

// refNetwork mirrors Network's observable contract (RoutePhase,
// SetBandwidth, Stats) on the retired layout.
type refNetwork struct {
	topo  Topology
	cfg   Config
	clock int64
	stats Stats
}

// newRefNetwork mirrors NewNetwork's config defaulting exactly: the RowOf
// fallback must hash identically or the two routers aim packets at
// different modules.
func newRefNetwork(side int, pl Placement, cfg Config) *refNetwork {
	if cfg.ModuleCapacity <= 0 {
		cfg.ModuleCapacity = 1
	}
	if pl == ModulesAtLeaves && cfg.RowOf == nil {
		cfg.RowOf = func(v, cp int) int { return int(mix64(uint64(v)*31+uint64(cp))) & (side - 1) }
	}
	return &refNetwork{topo: NewTopology(side, pl), cfg: cfg}
}

func (rn *refNetwork) SetBandwidth(perPhase int) {
	if perPhase < 1 {
		perPhase = 1
	}
	rn.cfg.ModuleCapacity = perPhase
}

func (rn *refNetwork) Stats() Stats { return rn.stats }

// route resolves one attempt to its packed-edge request path and grid
// module id, the pre-SoA way.
func (rn *refNetwork) route(a quorum.Attempt) ([]uint64, int) {
	side := rn.topo.Side
	var row, col int
	rowRail := false
	if rn.topo.Placement == ModulesAtLeaves {
		if rn.cfg.DualRail && a.Module >= side {
			rowRail = true
			row = a.Module & (side - 1)
			col = rn.cfg.RowOf(a.Var, a.Copy) & (side - 1)
		} else {
			col = a.Module & (side - 1)
			row = rn.cfg.RowOf(a.Var, a.Copy) & (side - 1)
		}
	} else {
		col = a.Module & (side - 1)
	}
	if a.Proc >= side {
		panic("mot: processor id exceeds root count")
	}
	if rowRail {
		return rn.topo.requestPathRowRail(a.Proc, row, col), row*side + col
	}
	return rn.topo.requestPath(a.Proc, row, col), row*side + col
}

// RoutePhase routes one phase the pre-SoA way: build heap packets, sort
// stably by priority, then per cycle sweep the survivors claiming edges in
// a fresh map. Deliberately allocation-heavy and branchy — it is the
// oracle, not the product.
func (rn *refNetwork) RoutePhase(attempts []quorum.Attempt) ([]bool, int64, int) {
	granted := make([]bool, len(attempts))
	if len(attempts) == 0 {
		return granted, 0, 0
	}
	pkts := make([]*refPacket, 0, len(attempts))
	modLoad := map[int]int{}
	for i, a := range attempts {
		path, module := rn.route(a)
		pk := &refPacket{
			attempt: i,
			prio:    a.Proc,
			path:    path,
			service: rn.topo.servicePos(),
			module:  module,
		}
		pkts = append(pkts, pk)
		modLoad[pk.module]++
	}
	maxLoad := 0
	for _, c := range modLoad {
		if c > maxLoad {
			maxLoad = c
		}
	}
	// Priority order with attempt-index tie-break: a stable sort over the
	// injection order is exactly that.
	sort.SliceStable(pkts, func(x, y int) bool { return pkts[x].prio < pkts[y].prio })
	drop := rn.cfg.Policy == DropOnCollision
	start := rn.clock
	for len(pkts) > 0 {
		rn.clock++
		claims := map[uint64]bool{}
		modCnt := map[int]int{}
		queued := 0
		next := pkts[:0]
		for _, pk := range pkts {
			if pk.pos == pk.service && !pk.served {
				if modCnt[pk.module] < rn.cfg.ModuleCapacity {
					modCnt[pk.module]++
					pk.served = true
					rn.stats.Served++
				} else {
					queued++
				}
				next = append(next, pk)
				continue
			}
			e := pk.path[pk.pos]
			if !claims[e] {
				claims[e] = true
				pk.pos++
				rn.stats.Hops++
				if pk.pos == len(pk.path) {
					granted[pk.attempt] = true
					continue
				}
			} else if drop && !pk.served {
				rn.stats.Collisions++
				continue
			}
			next = append(next, pk)
		}
		pkts = next
		if queued > rn.stats.MaxQueue {
			rn.stats.MaxQueue = queued
		}
	}
	elapsed := rn.clock - start
	rn.stats.Cycles += elapsed
	return granted, elapsed, maxLoad
}

// refLoads are the phase sizes the differential sweeps draw from. The
// router has two regimes — the singleton fast path and the cycle loop over
// contended components — and the load decides which one a phase exercises:
// sparse phases are mostly singletons, dense ones (up to four packets per
// root) leave almost none, mixed spans both.
var refLoads = []string{"sparse", "mixed", "dense"}

// refPhaseSize draws a phase's packet count for one of refLoads.
func refPhaseSize(rng *rand.Rand, side int, load string) int {
	switch load {
	case "sparse":
		return 1 + rng.Intn(side/4+1)
	case "dense":
		return side + rng.Intn(3*side)
	}
	return 1 + rng.Intn(2*side)
}

// refAttempts draws one phase's attempt set, including duplicate and
// descending processor ids (sort path, priority ties) and, under dual
// rail, row-bank ids.
func refAttempts(rng *rand.Rand, side int, dualRail bool, load string) []quorum.Attempt {
	banks := side
	if dualRail {
		banks = 2 * side
	}
	k := refPhaseSize(rng, side, load)
	attempts := make([]quorum.Attempt, k)
	for i := range attempts {
		attempts[i] = quorum.Attempt{
			Proc:   rng.Intn(side),
			Module: rng.Intn(banks),
			Var:    rng.Intn(4096),
			Copy:   rng.Intn(8),
			Write:  rng.Intn(2) == 0,
		}
	}
	return attempts
}

// runReferencePhases drives the AoS reference and a production network
// through identical phase streams — including a mid-stream bandwidth
// change — and demands bit-for-bit equality.
func runReferencePhases(t *testing.T, side int, pl Placement, cfg Config, load string, seed int64, phases int) {
	t.Helper()
	ref := newRefNetwork(side, pl, cfg)
	nw := NewNetwork(side, pl, cfg)
	rng := rand.New(rand.NewSource(seed))
	for phase := 0; phase < phases; phase++ {
		attempts := refAttempts(rng, side, cfg.DualRail, load)
		if phase == phases/2 {
			ref.SetBandwidth(3)
			nw.SetBandwidth(3)
		}
		gr, cr, lr := ref.RoutePhase(attempts)
		gn, cn, ln := nw.RoutePhase(attempts)
		if cr != cn || lr != ln {
			t.Fatalf("phase %d: reference (cycles=%d load=%d) != SoA (cycles=%d load=%d)",
				phase, cr, lr, cn, ln)
		}
		for i := range gr {
			if gr[i] != gn[i] {
				t.Fatalf("phase %d: grant[%d] reference=%v SoA=%v", phase, i, gr[i], gn[i])
			}
		}
	}
	if ref.Stats() != nw.Stats() {
		t.Fatalf("stats diverged:\n reference %+v\n SoA       %+v", ref.Stats(), nw.Stats())
	}
}

// TestReferenceDifferential sweeps the SoA router against the retired AoS
// reference across sides, placements, policies, rails, module capacities
// and phase loads.
func TestReferenceDifferential(t *testing.T) {
	type tc struct {
		pl       Placement
		pol      Policy
		dualRail bool
		capacity int
	}
	cases := []tc{
		{ModulesAtLeaves, DropOnCollision, false, 1},
		{ModulesAtLeaves, QueueOnCollision, false, 1},
		{ModulesAtLeaves, DropOnCollision, true, 1},
		{ModulesAtLeaves, DropOnCollision, true, 3},
		{ModulesAtLeaves, QueueOnCollision, true, 2},
		{ModulesAtRoots, DropOnCollision, false, 1},
		{ModulesAtRoots, QueueOnCollision, false, 2},
	}
	for _, side := range []int{4, 8, 16, 32} {
		for ci, c := range cases {
			name := fmt.Sprintf("side=%d/case=%d/pl=%v/pol=%d/dual=%v/cap=%d",
				side, ci, c.pl, c.pol, c.dualRail, c.capacity)
			t.Run(name, func(t *testing.T) {
				for _, load := range refLoads {
					t.Run("load="+load, func(t *testing.T) {
						for seed := int64(1); seed <= 3; seed++ {
							runReferencePhases(t, side, c.pl,
								Config{Policy: c.pol, DualRail: c.dualRail, ModuleCapacity: c.capacity},
								load, seed*1289, 6)
						}
					})
				}
			})
		}
	}
}

// TestReferenceSingletonPhase pins the closed form the singleton fast path
// relies on: a lone packet's phase is pathLen+1 cycles and pathLen hops on
// both routers, for every placement and rail.
func TestReferenceSingletonPhase(t *testing.T) {
	const side = 8
	cases := []struct {
		name string
		pl   Placement
		cfg  Config
		att  quorum.Attempt
		want int64 // pathLen
	}{
		{"leaves", ModulesAtLeaves, Config{}, quorum.Attempt{Proc: 3, Module: 5, Var: 9}, 6 * 3},
		{"leaves-rowrail", ModulesAtLeaves, Config{DualRail: true}, quorum.Attempt{Proc: 3, Module: side + 5, Var: 9}, 6 * 3},
		{"roots", ModulesAtRoots, Config{}, quorum.Attempt{Proc: 3, Module: 5, Var: 9}, 4 * 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := newRefNetwork(side, c.pl, c.cfg)
			nw := NewNetwork(side, c.pl, c.cfg)
			gr, cr, _ := ref.RoutePhase([]quorum.Attempt{c.att})
			gn, cn, _ := nw.RoutePhase([]quorum.Attempt{c.att})
			if !gr[0] || !gn[0] {
				t.Fatalf("lone packet not granted: reference=%v SoA=%v", gr[0], gn[0])
			}
			if cr != c.want+1 || cn != c.want+1 {
				t.Fatalf("lone packet elapsed: reference=%d SoA=%d, want %d", cr, cn, c.want+1)
			}
			if ref.Stats().Hops != c.want || nw.Stats().Hops != c.want {
				t.Fatalf("lone packet hops: reference=%d SoA=%d, want %d",
					ref.Stats().Hops, nw.Stats().Hops, c.want)
			}
		})
	}
}

// TestPartitionMatchesOracle checks the tree partition that gates the
// singleton fast path against an independent derivation: components of the
// "shares a tree or a module" relation computed from the reference router's
// packed edge ids, numbered in priority order of first appearance. It also
// checks the property the fast path relies on directly — a packet alone in
// its component shares no edge and no module with any other packet.
func TestPartitionMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		pl   Placement
		cfg  Config
	}{
		{"leaves", ModulesAtLeaves, Config{}},
		{"leaves-dual", ModulesAtLeaves, Config{DualRail: true}},
		{"roots", ModulesAtRoots, Config{}},
	}
	for _, side := range []int{4, 8, 16, 32} {
		for _, c := range cases {
			for _, load := range refLoads {
				name := fmt.Sprintf("side=%d/%s/load=%s", side, c.name, load)
				t.Run(name, func(t *testing.T) {
					ref := newRefNetwork(side, c.pl, c.cfg)
					nw := NewNetwork(side, c.pl, c.cfg)
					rng := rand.New(rand.NewSource(int64(side) * 7919))
					for phase := 0; phase < 8; phase++ {
						attempts := refAttempts(rng, side, c.cfg.DualRail, load)
						nw.RoutePhase(attempts)
						checkPartition(t, phase, ref, attempts, nw.compOf, nw.compCnt)
					}
				})
			}
		}
	}
}

// checkPartition compares one phase's (compOf, compCnt) with the oracle.
func checkPartition(t *testing.T, phase int, ref *refNetwork, attempts []quorum.Attempt, compOf, compCnt []int32) {
	t.Helper()
	k := len(attempts)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return attempts[order[x]].Proc < attempts[order[y]].Proc })
	paths := make([][]uint64, k)
	modules := make([]int, k)
	for i, a := range attempts {
		paths[i], modules[i] = ref.route(a)
	}
	// Naive union-find over packets: link every packet to the first one
	// seen on each of its trees (kind and tree index of the packed edge id,
	// direction ignored) and on its module.
	parent := make([]int, k)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	firstOnTree := map[uint64]int{}
	firstOnModule := map[int]int{}
	link := func(i, j int) { parent[find(i)] = find(j) }
	for i := range attempts {
		for _, e := range paths[i] {
			tree := (e >> 63 << 62) | ((e >> 40) & (1<<22 - 1)) // kind, tree index
			if j, ok := firstOnTree[tree]; ok {
				link(i, j)
			} else {
				firstOnTree[tree] = i
			}
		}
		if j, ok := firstOnModule[modules[i]]; ok {
			link(i, j)
		} else {
			firstOnModule[modules[i]] = i
		}
	}
	idOf := map[int]int32{}
	var wantCnt []int32
	if len(compOf) != k {
		t.Fatalf("phase %d: %d component labels for %d packets", phase, len(compOf), k)
	}
	for j, pi := range order {
		r := find(pi)
		id, ok := idOf[r]
		if !ok {
			id = int32(len(wantCnt))
			idOf[r] = id
			wantCnt = append(wantCnt, 0)
		}
		wantCnt[id]++
		if compOf[j] != id {
			t.Fatalf("phase %d: packet %d (priority position %d) in component %d, oracle says %d",
				phase, pi, j, compOf[j], id)
		}
	}
	if fmt.Sprint(compCnt) != fmt.Sprint(wantCnt) {
		t.Fatalf("phase %d: component sizes %v, oracle %v", phase, compCnt, wantCnt)
	}
	// A path may cross one directed edge twice (the reply retraces the
	// request's climb when row == proc), so edges count distinct packets.
	const shared = -1
	edgeOwner := map[uint64]int{}
	moduleUsers := map[int]int{}
	for i := range attempts {
		for _, e := range paths[i] {
			if o, ok := edgeOwner[e]; !ok {
				edgeOwner[e] = i
			} else if o != i {
				edgeOwner[e] = shared
			}
		}
		moduleUsers[modules[i]]++
	}
	for j, pi := range order {
		if compCnt[compOf[j]] != 1 {
			continue
		}
		if moduleUsers[modules[pi]] != 1 {
			t.Fatalf("phase %d: singleton packet %d shares module %d", phase, pi, modules[pi])
		}
		for _, e := range paths[pi] {
			if edgeOwner[e] == shared {
				t.Fatalf("phase %d: singleton packet %d shares edge %x", phase, pi, e)
			}
		}
	}
}
