package mot

import (
	"cmp"
	"slices"

	"repro/internal/quorum"
)

// Policy selects the contention rule for request packets on tree edges.
type Policy uint8

const (
	// DropOnCollision refuses the lower-priority packet at an edge
	// conflict; the quorum engine retries it next phase. This is the
	// paper's routing rule and the default.
	DropOnCollision Policy = iota
	// QueueOnCollision makes the loser wait a cycle instead (pure
	// store-and-forward). Useful as an ablation: it trades phases for
	// longer ones.
	QueueOnCollision
)

// Config tunes the network simulation.
type Config struct {
	// ModuleCapacity is the number of requests a module can serve per
	// cycle (default 1). Requests beyond it queue at the module leaf —
	// the stage-2 pipelining of the simulation scheme.
	ModuleCapacity int
	// Policy is the tree-edge contention rule for request legs.
	Policy Policy
	// RowOf places copy `cp` of variable `v` on a grid row (needed for
	// ModulesAtLeaves; ignored for ModulesAtRoots). The memory map already
	// fixes the bank/column of every copy; the row spreads copies within
	// the bank. Must be deterministic.
	RowOf func(v, cp int) int
	// DualRail enables the row+column access of Theorem 3's remark: bank
	// ids in [0, side) are column banks (routed via the column tree), ids
	// in [side, 2·side) are ROW banks (routed via requestPathRowRail),
	// doubling the number of independent serialization points.
	DualRail bool
}

// Stats accumulates network-level counters across phases.
type Stats struct {
	Cycles     int64 // total simulated cycles
	Hops       int64 // edge traversals
	Collisions int64 // request packets refused at a tree edge
	Served     int64 // module services completed
	MaxQueue   int   // deepest module backlog observed in any cycle
}

// Sub returns the counter deltas s−prev for a window bounded by two
// snapshots of one network's Stats. Cycles, Hops, Collisions and Served
// are monotone counters, so the differences are the window's activity;
// MaxQueue is a running maximum, not a counter — the result carries the
// current value unchanged (a per-window peak needs the per-step
// ModuleContention report instead).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Cycles:     s.Cycles - prev.Cycles,
		Hops:       s.Hops - prev.Hops,
		Collisions: s.Collisions - prev.Collisions,
		Served:     s.Served - prev.Served,
		MaxQueue:   s.MaxQueue,
	}
}

// Network is a 2DMOT with a synchronous packet switch fabric. It implements
// quorum.Interconnect, so it slots into the quorum engine exactly where the
// complete bipartite graph of the DMMPC does — same protocol, real network.
//
// The simulation is allocation-free in steady state. Paths are materialized
// as dense edge indices (Topology.denseEdgeID) into a shared per-phase
// arena, for contended packets only (a singleton's path length is the
// constant 2·servicePos(), all its closed form needs); per-cycle edge
// contention is a claim-set stamped with the global cycle counter (which
// never resets, so the set never needs clearing), and module service/load
// counters live in small phase-interned tables. Packet
// state is STRUCTURE-OF-ARRAYS — four parallel int32 lanes (cursor, end,
// service point, module), see the package doc's "SoA layout & claim
// resolution" section — and each cycle walks a compacted active-packet list
// of indices into those lanes. The invariant is locked in by
// TestRoutePhaseZeroAllocs; behavior is locked to the reference
// implementation by the golden-trace tests and the AoS reference router in
// reference_test.go.
//
// Each phase is partitioned into tree-connectivity components (see
// partition.go) from the packets' trees and modules alone; singleton
// components are resolved in closed form, and only the contended ones get
// paths and run the synchronous cycle loop. The arenas make a
// Network single-threaded: one phase at a time.
type Network struct {
	topo Topology
	cfg  Config

	clock int64 // global cycle counter, never reset
	stats Stats

	phase int64 // RoutePhase invocation counter; stamps the intern tables

	// Edge claim-set: cycle-stamped open addressing keyed by dense edge
	// index. A slot whose cycle differs from the current one is free, so
	// the table never needs clearing — stale entries from earlier cycles
	// or phases only ever cause extra probing, never a false collision,
	// because claim outcomes depend solely on (cycle, key) equality.
	slots []edgeSlot
	mask  int

	// Module interning: grid module id -> phase-local id, open addressing.
	modSlotKey   []int32
	modSlotVal   []int32
	modSlotPhase []int64
	modMask      int
	modCount     int32
	modLoad      []int32 // per phase-local module: attempts this phase
	modServed    []int64 // per phase-local module: cycle stamp of service count
	modServedCnt []int32 // per phase-local module: services this cycle
	modKey       []int32 // per phase-local module: grid leaf row·side+col

	// SoA packet state: four parallel dense int32 lanes indexed by packet
	// id (== attempt index). The cycle loop touches only these 4-byte
	// lanes plus the shared path arena, so its working set is cache-linear
	// in the compacted active order (ascending packet ids). pktCur, pktEnd
	// and pktSrv are written by the path pass, for contended packets only.
	pktCur []int32 // absolute index of the next edge in pathBuf
	pktEnd []int32 // absolute end-of-path offset (grant on reaching it)
	pktSrv []int32 // absolute module-service offset; −1 once served
	pktMod []int32 // phase-local module id for service accounting
	// pktPrio is the processor priority (== issuing processor), consulted
	// only on the cold sort path (engine schedules arrive pre-sorted) and
	// by the path pass — kept out of the hot lanes above.
	pktPrio []int32

	// Per-phase buffers.
	active  []int32 // live packet indices in priority order, compacted per cycle
	order   []int32 // processing order when attempts arrive unsorted
	pathBuf []int32 // contended packets' paths, dense edge indices, 2·servicePos() each
	granted []bool
	// pktTrees stores, per packet, the union-find node ids of the up-to-
	// three trees its path traverses (3 entries each, −1 when unused).
	// Together with the module node they define the packet's connectivity
	// component, which decides whether the singleton fast path applies;
	// a non-negative third entry also tells the path pass to take the row
	// rail. Kept out of the hot lanes so the cycle loop's working set stays
	// minimal.
	pktTrees []int32

	// Tree-connectivity partition scratch.
	ufParent []int32
	ufSize   []int32
	ufStamp  []int64
	compCnt  []int32 // per component: packet count
	compOf   []int32 // per active position: component id
}

// edgeSlot is one entry of the cycle-stamped edge claim-set.
type edgeSlot struct {
	cycle int64
	key   int32
}

// NewNetwork builds a 2DMOT network simulator over an a×a grid.
func NewNetwork(side int, pl Placement, cfg Config) *Network {
	if cfg.ModuleCapacity <= 0 {
		cfg.ModuleCapacity = 1
	}
	if pl == ModulesAtLeaves && cfg.RowOf == nil {
		cfg.RowOf = func(v, cp int) int { return int(mix64(uint64(v)*31+uint64(cp))) & (side - 1) }
	}
	topo := NewTopology(side, pl) // panics if side breaches the int32 dense-edge ceiling
	return &Network{topo: topo, cfg: cfg}
}

// Topology returns the network's shape.
func (nw *Network) Topology() Topology { return nw.topo }

// TimeInCycles marks the network's phase durations as physical cycles
// (quorum.CycleTimed).
func (nw *Network) TimeInCycles() bool { return true }

// SetBandwidth implements quorum.BandwidthSetter: it retunes the module
// service rate per cycle, the knob the two-stage schedule's pipelined
// stage 2 turns up to O(log n).
func (nw *Network) SetBandwidth(perPhase int) {
	if perPhase < 1 {
		perPhase = 1
	}
	nw.cfg.ModuleCapacity = perPhase
}

// Stats returns accumulated counters.
func (nw *Network) Stats() Stats { return nw.stats }

// ensureTables sizes the claim-set, intern tables and per-phase buffers for
// a phase of k attempts, growing (and only growing) the reusable arenas.
func (nw *Network) ensureTables(k int) {
	// Per cycle at most one edge claim per live packet, so 4k slots keep
	// the claim-set's load factor under 25%.
	if need := 4 * k; nw.mask == 0 || len(nw.slots) < need {
		sz := 64
		for sz < need {
			sz *= 2
		}
		nw.slots = make([]edgeSlot, sz)
		nw.mask = sz - 1
	}

	needMod := 2 * k
	if nw.modMask == 0 || len(nw.modSlotKey) < needMod {
		sz := 16
		for sz < needMod {
			sz *= 2
		}
		nw.modSlotKey = make([]int32, sz)
		nw.modSlotVal = make([]int32, sz)
		nw.modSlotPhase = make([]int64, sz)
		nw.modMask = sz - 1
	}
	if cap(nw.modLoad) < k {
		nw.modLoad = make([]int32, k)
		nw.modServed = make([]int64, k)
		nw.modServedCnt = make([]int32, k)
		nw.modKey = make([]int32, k)
	}
	nw.modLoad = nw.modLoad[:k]
	nw.modServed = nw.modServed[:k]
	nw.modServedCnt = nw.modServedCnt[:k]
	nw.modKey = nw.modKey[:k]

	nw.pktCur = growSlice(nw.pktCur, k)
	nw.pktEnd = growSlice(nw.pktEnd, k)
	nw.pktSrv = growSlice(nw.pktSrv, k)
	nw.pktMod = growSlice(nw.pktMod, k)
	nw.pktPrio = growSlice(nw.pktPrio, k)
	nw.pktTrees = growSlice(nw.pktTrees, 3*k)
}

// internModule maps a grid module id to a compact phase-local id.
func (nw *Network) internModule(key int32) int32 {
	h := int((uint64(uint32(key))*0x9E3779B97F4A7C15)>>40) & nw.modMask
	for {
		if nw.modSlotPhase[h] != nw.phase {
			nw.modSlotPhase[h] = nw.phase
			nw.modSlotKey[h] = key
			id := nw.modCount
			nw.modCount++
			nw.modSlotVal[h] = id
			return id
		}
		if nw.modSlotKey[h] == key {
			return nw.modSlotVal[h]
		}
		h = (h + 1) & nw.modMask
	}
}

// b2i converts a claim/drop outcome into a branch-free increment: the
// compiler lowers it to SETcc, so the cycle loop's per-packet bookkeeping
// (cursor advance, active-list retention, counter bumps) is conditional
// moves instead of unpredictable branches.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// RoutePhase implements quorum.Interconnect. Each attempt becomes a packet
// injected at its processor's root on cycle one of the phase; the phase
// lasts until every packet has either returned (granted) or collided
// (refused). The phase cost is the makespan in cycles.
//
//pram:hotpath
func (nw *Network) RoutePhase(attempts []quorum.Attempt) ([]bool, int64, int) {
	if cap(nw.granted) < len(attempts) {
		nw.granted = make([]bool, len(attempts))
	}
	granted := nw.granted[:len(attempts)]
	clear(granted)
	nw.granted = granted
	if len(attempts) == 0 {
		return granted, 0, 0
	}
	side := nw.topo.Side
	nw.phase++
	nw.ensureTables(len(attempts))
	nw.modCount = 0
	svc := int32(nw.topo.servicePos())

	pktMod, pktPrio := nw.pktMod, nw.pktPrio
	pktTrees, modKey := nw.pktTrees, nw.modKey
	sorted := true
	for i, a := range attempts {
		var row, col int
		rowRail := false
		if nw.topo.Placement == ModulesAtLeaves {
			// Attempt.Module is the bank chosen by the memory map; with
			// DualRail, banks ≥ side are row banks. The free coordinate
			// spreads copies within the bank.
			if nw.cfg.DualRail && a.Module >= side {
				rowRail = true
				row = a.Module & (side - 1)
				col = nw.cfg.RowOf(a.Var, a.Copy) & (side - 1)
			} else {
				col = a.Module & (side - 1)
				row = nw.cfg.RowOf(a.Var, a.Copy) & (side - 1)
			}
		} else {
			col = a.Module & (side - 1)
			row = 0
		}
		if a.Proc >= side {
			panic("mot: processor id exceeds root count")
		}
		key := int32(row*side + col)
		lm := nw.internModule(key)
		if nw.modServed[lm] != -nw.phase {
			// First sighting this phase: reset the load counter (the
			// negative phase stamp cannot collide with a cycle stamp) and
			// remember the leaf, from which the path pass rebuilds (row,
			// col) for contended packets.
			nw.modServed[lm] = -nw.phase
			nw.modLoad[lm] = 0
			nw.modServedCnt[lm] = 0
			modKey[lm] = key
		}
		nw.modLoad[lm]++
		// Tree-partition nodes: row trees are [0, side), column trees
		// [side, 2·side); the module node is added during partitioning.
		// The row rail climbs column tree `row`, then switches to ROW
		// tree `row` for the final delivery, so pktTrees[3i+2] ≥ 0 also
		// marks the rail for the path pass.
		pktTrees[3*i], pktTrees[3*i+1], pktTrees[3*i+2] = int32(a.Proc), int32(side+col), -1
		if rowRail {
			pktTrees[3*i+1], pktTrees[3*i+2] = int32(side+row), int32(row)
		}
		pktMod[i] = lm
		pktPrio[i] = int32(a.Proc)
		if i > 0 && pktPrio[i-1] > pktPrio[i] {
			sorted = false
		}
	}
	maxLoad := 0
	for m := int32(0); m < nw.modCount; m++ {
		if int(nw.modLoad[m]) > maxLoad {
			maxLoad = int(nw.modLoad[m])
		}
	}
	// Deterministic processing order: by priority, then attempt index. The
	// engine schedules attempts in ascending processor order, so in steady
	// state this is the injection order and no sort happens.
	active := nw.active[:0]
	if sorted {
		for i := range attempts {
			active = append(active, int32(i))
		}
	} else {
		order := nw.order[:0]
		for i := range attempts {
			order = append(order, int32(i))
		}
		//pram:coldalloc non-escaping comparator: stays on the stack (E5 benches pin RoutePhase at 0 allocs/op)
		slices.SortFunc(order, func(x, y int32) int {
			if pktPrio[x] != pktPrio[y] {
				return cmp.Compare(pktPrio[x], pktPrio[y])
			}
			return cmp.Compare(x, y)
		})
		nw.order = order
		active = append(active, order...)
	}
	nw.active = active[:0]

	start := nw.clock

	// Singleton fast path. The tree-partition invariant (package doc) says
	// a packet alone in its tree-connectivity component can never lose an
	// edge claim (no other packet touches its trees) nor queue at its
	// module (no other packet addresses it), so its cycle-by-cycle future
	// is closed-form: it advances one edge per cycle, spends one cycle
	// being served, and returns granted after pathLen+1 cycles having
	// contributed pathLen hops, one service, zero collisions and zero
	// backlog. Every request path has pathLen = 2·servicePos() edges (6d
	// with modules at the leaves, 4d at the roots; TestDensePathLength pins
	// it), so a singleton's path is never built. At production sizes most
	// packets are singletons (k packets scatter over side ≫ k banks), so
	// resolving them analytically leaves the path arena and the cycle loop
	// only the contended components. Bit-for-bit identical to routing
	// them: the golden traces, the AoS reference differential tests and
	// FuzzRoutePhase pin it.
	var fastElapsed, hops, collisions, served int64
	pathLen := 2 * int64(svc)
	nw.partition(active)
	compOf, compCnt := nw.compOf, nw.compCnt
	w := 0
	for j, pi := range active {
		if compCnt[compOf[j]] == 1 {
			granted[pi] = true
			hops += pathLen
			served++
			fastElapsed = pathLen + 1
			continue
		}
		active[w] = pi
		w++
	}
	active = active[:w]

	// Path pass: materialize the dense paths of the contended packets
	// only, in priority order. Claim outcomes depend on (cycle, edge key)
	// alone, never on arena offsets, so the layout is free.
	pktCur, pktEnd, pktSrv := nw.pktCur, nw.pktEnd, nw.pktSrv
	pathBuf := nw.pathBuf[:0]
	depth := nw.topo.Depth
	for _, pi := range active {
		key := modKey[pktMod[pi]]
		proc, row, col := int(pktPrio[pi]), int(key>>depth), int(key)&(side-1)
		off := int32(len(pathBuf))
		if pktTrees[3*pi+2] >= 0 {
			pathBuf = nw.topo.appendRequestPathRowRailDense(pathBuf, proc, row, col)
		} else {
			pathBuf = nw.topo.appendRequestPathDense(pathBuf, proc, row, col)
		}
		pktCur[pi] = off
		pktEnd[pi] = int32(len(pathBuf))
		pktSrv[pi] = off + svc
	}
	nw.pathBuf = pathBuf

	// Synchronous cycle loop over the contended components.
	slots, mask := nw.slots, nw.mask
	modServed, modServedCnt := nw.modServed, nw.modServedCnt
	capacity := nw.cfg.ModuleCapacity
	drop := nw.cfg.Policy == DropOnCollision
	maxQueue := nw.stats.MaxQueue
	clock := start
	for len(active) > 0 {
		clock++
		cycle := clock
		queued := 0
		w := 0
		for _, pi := range active {
			cur := pktCur[pi]
			srv := pktSrv[pi]
			// Module service point (taken once per packet per phase, plus
			// while queued at the leaf — the only branch in the loop).
			if cur == srv {
				lm := pktMod[pi]
				if modServed[lm] != cycle {
					modServed[lm] = cycle
					modServedCnt[lm] = 0
				}
				if int(modServedCnt[lm]) < capacity {
					modServedCnt[lm]++
					pktSrv[pi] = -1
					served++
				} else {
					queued++ // wait at the module leaf (stage-2 queue)
				}
				active[w] = pi
				w++
				continue
			}
			// Edge traversal: claim-set probe, then branch-free selects.
			// The first probe covers >75% of claims (the table is sized to
			// 4 slots per live packet); only a same-cycle slot holding a
			// DIFFERENT edge keeps probing. A same-cycle slot holding THIS
			// edge is a collision, and re-storing (cycle, key) into it is
			// idempotent — so both fast outcomes share one unconditional
			// store and the claim verdict is a flag, not a branch.
			e := pathBuf[cur]
			h := int((uint64(uint32(e))*0x9E3779B97F4A7C15)>>40) & mask
			s := &slots[h]
			ok := s.cycle != cycle
			if !ok && s.key != e {
				ok = claimEdgeProbe(slots, mask, e, cycle, h)
			} else {
				s.cycle = cycle
				s.key = e
			}
			// Branch-free resolution: advance the cursor by the claim
			// verdict, mark a grant when the path is exhausted, refuse an
			// unserved loser under the drop policy, and keep the packet on
			// the compacted active list unless it finished either way.
			adv := b2i(ok)
			cur += adv
			pktCur[pi] = cur
			hops += int64(adv)
			done := cur == pktEnd[pi]
			granted[pi] = done
			refused := drop && !ok && srv >= 0
			collisions += int64(b2i(refused))
			active[w] = pi
			w += int(b2i(!(done || refused)))
		}
		active = active[:w]
		if queued > maxQueue {
			maxQueue = queued
		}
	}
	nw.stats.Hops += hops
	nw.stats.Collisions += collisions
	nw.stats.Served += served
	nw.stats.MaxQueue = maxQueue
	elapsed := clock - start
	if fastElapsed > elapsed {
		elapsed = fastElapsed
	}
	nw.clock = start + elapsed
	nw.stats.Cycles += elapsed
	return granted, elapsed, maxLoad
}

// mix64 is splitmix64's finalizer: a cheap, deterministic hash used to
// scatter copy rows within a bank.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
