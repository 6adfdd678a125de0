// Package mot implements the two-dimensional mesh of trees (2DMOT, the
// "orthogonal trees" of Nath, Maheshwari & Bhatt 1983): an a×a grid of
// leaves where row i's leaves form the fringe of a complete binary row tree
// RT(i) and column j's leaves form the fringe of a column tree CT(j), with
// processors at the coalesced tree roots.
//
// The package provides a synchronous, hop-per-cycle packet simulation of
// the network and implements quorum.Interconnect: a protocol phase is
// realized by injecting one packet per attempting processor, routing it
// down its row tree, up and down the target column tree to the memory
// module, and back. Conflicting packets that meet on a tree edge collide —
// the lower-priority one is refused for this phase and retried by the
// engine, the rule Theorem 3's routing uses ("provided it does not collide
// with a conflicting request"); replies and module queues use FIFO waiting,
// which is the stage-2 pipelining of Luccio et al. (1990).
//
// # Zero-allocation invariant
//
// Network.RoutePhase performs zero heap allocations in steady state:
// packet state lives in reusable structure-of-arrays lanes (see below),
// paths are dense edge indices (see denseEdgeID) written into a reusable
// arena — for contended packets only, the singletons never need theirs —
// edge contention is a cycle-stamped claim-set that never needs clearing
// (the global cycle counter never repeats), module counters are
// phase-interned, and each cycle walks a compacted active-packet list.
// testing.AllocsPerRun tests lock the invariant; golden-trace tests pin
// grants, cycle counts and Stats bit-for-bit to the pre-arena reference
// implementation.
//
// # SoA layout & claim resolution
//
// Packet state is STRUCTURE-OF-ARRAYS: instead of a []packet
// array-of-structs, the router keeps four parallel dense int32 lanes
// indexed by packet id (== attempt index) —
//
//	pktCur  absolute index of the packet's next edge in the path arena
//	pktEnd  absolute end-of-path offset (reaching it is the grant)
//	pktSrv  absolute module-service offset, −1 once served (the flag and
//	        the position share a lane: a packet is "not yet served" iff
//	        pktSrv ≥ 0, and "at its service point" iff pktCur == pktSrv)
//	pktMod  phase-local module id for service accounting
//
// plus cold side-tables that the cycle loop never touches: pktPrio (the
// processor, for the sort path and the path pass), pktTrees (the tree
// partition; its third entry also marks the row rail) and the per-module
// modKey (the leaf row·side+col). The first three lanes are written by the
// path pass, which runs after the partition and only for contended
// packets. The compacted active list holds indices into these lanes in
// ascending order, so a cycle's sweep reads each lane sequentially —
// cache-linear, 16 hot bytes per packet instead of a 32-byte struct.
//
// Edge-claim resolution is branch-free on the hot path. The claim-set is
// open-addressed and cycle-stamped; the first probe exploits an
// idempotent-store trick: a slot stamped with an older cycle is free
// (claim it — store cycle and key), and a same-cycle slot holding the
// SAME key is a collision for which re-storing (cycle, key) is a no-op —
// so both outcomes share one unconditional store and the verdict
// `ok = slot.cycle != cycle` is a flag, not a branch. Only a same-cycle
// slot holding a different key (< 25% of claims at the table's 4-slots-
// per-packet sizing) falls into the claimEdgeProbe continuation. The
// verdict then drives the whole per-packet update as conditional moves:
// the cursor advances by b2i(ok), the grant flag is the pure predicate
// `cur == pktEnd`, a drop-policy refusal is the predicate
// `!ok && unserved`, and the survivor is compacted onto the active list
// by bumping the write cursor with b2i(keep). The only branch left in
// the loop body is the once-per-packet module-service point.
//
// # Tree-partition invariant
//
// The 4a trees of the 2DMOT are edge-disjoint, and a packet interacts with
// other packets through exactly two mechanisms: edge contention (possible
// only between packets whose paths share a tree) and module service
// capacity (possible only between packets addressing the same module
// leaf). A request path traverses at most three trees — row tree of the
// issuing processor, column tree of the bank, and (on the dual-rail row
// rail) the row tree of the target row — all known at injection time.
// Partitioning a phase's packets into connected components of the
// "shares a tree or a module" relation therefore yields groups with
// disjoint edge sets, disjoint module counters and disjoint result slots.
// A packet alone in its component therefore never loses an edge claim nor
// queues at its module, so RoutePhase resolves it in closed form (see
// partition.go): every request path has 2·servicePos() edges (6d with
// modules at the leaves on either rail, 4d at the roots), so the singleton
// is granted after 2·servicePos()+1 cycles with 2·servicePos() hops and its
// path is never built. RoutePhase therefore partitions from the trees and
// module alone, then materializes paths and runs the cycle loop for the
// contended packets only; the golden traces, the AoS reference router and
// FuzzRoutePhase pin the result bit for bit.
package mot

import (
	"fmt"

	"repro/internal/xmath"
)

// Placement selects where the memory modules sit.
type Placement uint8

const (
	// ModulesAtLeaves is the paper's Section 3 deployment (Fig. 8): M = a²
	// modules, one per grid leaf, addressed by bank (column) and row. This
	// is what makes the √M columns act as independent banks and enables
	// constant redundancy.
	ModulesAtLeaves Placement = iota
	// ModulesAtRoots is the Luccio et al. (1990) deployment: n modules,
	// one per root processor, with the grid acting purely as a switching
	// fabric. Granularity stays m/n, so redundancy stays Θ(log n).
	ModulesAtRoots
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == ModulesAtRoots {
		return "modules-at-roots"
	}
	return "modules-at-leaves"
}

// Directed tree-edge encoding: every edge of every tree is identified by
// its child endpoint (level ∈ [1,d], position ∈ [0, 2^level)) plus the tree
// kind (row/column), tree index, and direction of travel.
const (
	kindRow = 0
	kindCol = 1
	dirDown = 0 // toward the leaves
	dirUp   = 1 // toward the root
)

// edgeID packs a directed tree edge into a map key.
func edgeID(kind, dir, tree, childLevel, childPos int) uint64 {
	return uint64(kind)<<63 | uint64(dir)<<62 |
		uint64(tree)<<40 | uint64(childLevel)<<34 | uint64(childPos)
}

// Directed tree edges also have a DENSE index: within one tree the edge to
// the child at (level, pos) gets offset 2^level − 2 + pos ∈ [0, 2a−2), and
// the (kind, dir, tree) triple selects one of 4a trees, giving the compact
// range [0, 4a·(2a−2)). The router's cycle-stamped tables are keyed by
// these indices instead of map lookups on the packed uint64 ids.

// EdgesPerTree returns the directed-edge count of one tree: 2a−2.
func (t Topology) EdgesPerTree() int { return 2*t.Side - 2 }

// DenseEdgeSpace returns the size of the dense directed-edge index range.
func (t Topology) DenseEdgeSpace() int { return 4 * t.Side * t.EdgesPerTree() }

// denseEdgeID maps a directed tree edge to its dense index. It is the
// arithmetic counterpart of edgeID: two edges get equal dense indices iff
// their packed ids are equal (TestDensePathMatchesEdgeIDs locks this).
func (t Topology) denseEdgeID(kind, dir, tree, childLevel, childPos int) int32 {
	ept := t.EdgesPerTree()
	return int32(((kind<<1|dir)*t.Side+tree)*ept + (1 << childLevel) - 2 + childPos)
}

// appendRequestPathDense appends requestPath's edges as dense indices.
func (t Topology) appendRequestPathDense(dst []int32, proc, row, col int) []int32 {
	d := t.Depth
	for l := 1; l <= d; l++ {
		dst = append(dst, t.denseEdgeID(kindRow, dirDown, proc, l, col>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		dst = append(dst, t.denseEdgeID(kindCol, dirUp, col, l, proc>>(d-l)))
	}
	if t.Placement == ModulesAtLeaves {
		for l := 1; l <= d; l++ {
			dst = append(dst, t.denseEdgeID(kindCol, dirDown, col, l, row>>(d-l)))
		}
	}
	// --- service point: len so far ---
	if t.Placement == ModulesAtLeaves {
		for l := d; l >= 1; l-- {
			dst = append(dst, t.denseEdgeID(kindCol, dirUp, col, l, row>>(d-l)))
		}
	}
	for l := 1; l <= d; l++ {
		dst = append(dst, t.denseEdgeID(kindCol, dirDown, col, l, proc>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		dst = append(dst, t.denseEdgeID(kindRow, dirUp, proc, l, col>>(d-l)))
	}
	return dst
}

// appendRequestPathRowRailDense appends requestPathRowRail's edges as dense
// indices.
func (t Topology) appendRequestPathRowRailDense(dst []int32, proc, row, col int) []int32 {
	d := t.Depth
	for l := 1; l <= d; l++ {
		dst = append(dst, t.denseEdgeID(kindRow, dirDown, proc, l, row>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		dst = append(dst, t.denseEdgeID(kindCol, dirUp, row, l, proc>>(d-l)))
	}
	for l := 1; l <= d; l++ {
		dst = append(dst, t.denseEdgeID(kindRow, dirDown, row, l, col>>(d-l)))
	}
	// --- service at leaf (row, col) ---
	for l := d; l >= 1; l-- {
		dst = append(dst, t.denseEdgeID(kindRow, dirUp, row, l, col>>(d-l)))
	}
	for l := 1; l <= d; l++ {
		dst = append(dst, t.denseEdgeID(kindCol, dirDown, row, l, proc>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		dst = append(dst, t.denseEdgeID(kindRow, dirUp, proc, l, row>>(d-l)))
	}
	return dst
}

// Topology captures the static shape of an a×a 2DMOT.
type Topology struct {
	Side      int // a: leaves per tree; must be a power of two
	Depth     int // d = log2(a)
	Placement Placement
}

// MaxSide is the largest supported grid side: the router keys its
// claim-sets and path arenas by int32 dense edge indices, so the dense
// directed-edge space 4a·(2a−2) = 8a²−8a must fit int32. Side 16384 yields
// 2,147,352,576 < 2³¹−1 edges; the next power of two overflows.
const MaxSide = 16384

// NewTopology validates and returns an a×a 2DMOT shape. It panics when
// side is not a power of two or breaches the int32 dense-edge ceiling
// (side > MaxSide) — the router's claim-sets and path arenas are keyed by
// int32 dense edge indices, and a silent wraparound would corrupt routing.
func NewTopology(side int, pl Placement) Topology {
	if !xmath.IsPow2(side) {
		panic(fmt.Sprintf("mot: side %d must be a power of two", side))
	}
	if side > MaxSide {
		panic(fmt.Sprintf(
			"mot: side %d exceeds the int32 dense-edge ceiling: 4a(2a-2) = %d directed edges > max %d; the largest supported side is %d",
			side, int64(4*side)*int64(2*side-2), int64(1)<<31-1, MaxSide))
	}
	return Topology{Side: side, Depth: xmath.ILog2(side), Placement: pl}
}

// Nodes returns the total node count: a² leaves plus 2a(a−1) internal tree
// nodes (the O(M) "dummy processors, mere switches" of the DMBDN model).
func (t Topology) Nodes() int {
	a := t.Side
	return a*a + 2*a*(a-1)
}

// Switches returns only the non-leaf switching nodes.
func (t Topology) Switches() int { return 2 * t.Side * (t.Side - 1) }

// requestPath returns the forward path of a request from processor root
// `proc` to the module, and the index at which module service happens
// (== len(forward)); the reply path is appended after it.
//
// ModulesAtLeaves — module (row i, column j):
//
//	root(RT proc) ⇓ leaf(proc,j) ⇑ root(CT j) ⇓ leaf(i,j) [serve] and back.
//
// ModulesAtRoots — module at root i:
//
//	root(RT proc) ⇓ leaf(proc,i) ⇑ root(CT i) [serve] and back.
func (t Topology) requestPath(proc, row, col int) []uint64 {
	d := t.Depth
	path := make([]uint64, 0, 6*d)
	// Down row tree `proc` to leaf column `col`.
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindRow, dirDown, proc, l, col>>(d-l)))
	}
	// Up column tree `col` from leaf position `proc` to its root.
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindCol, dirUp, col, l, proc>>(d-l)))
	}
	if t.Placement == ModulesAtLeaves {
		// Down column tree `col` to leaf row `row`.
		for l := 1; l <= d; l++ {
			path = append(path, edgeID(kindCol, dirDown, col, l, row>>(d-l)))
		}
	}
	// --- service point: len(path) ---
	// Reply: exact reverse.
	if t.Placement == ModulesAtLeaves {
		for l := d; l >= 1; l-- {
			path = append(path, edgeID(kindCol, dirUp, col, l, row>>(d-l)))
		}
	}
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindCol, dirDown, col, l, proc>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindRow, dirUp, proc, l, col>>(d-l)))
	}
	return path
}

// servicePos returns the index within a requestPath at which the packet is
// served by the module.
func (t Topology) servicePos() int {
	if t.Placement == ModulesAtLeaves {
		return 3 * t.Depth
	}
	return 2 * t.Depth
}

// requestPathRowRail returns the dual-rail alternative path of Theorem 3's
// closing remark ("we can simultaneously access along both rows and
// columns"): the final delivery to module (row, col) rides ROW tree `row`
// instead of column tree `col`, making the a rows a second, independent
// set of banks:
//
//	root(RT proc) ⇓ leaf(proc,row) ⇑ root(CT row)=root(RT row)
//	⇓ leaf(row,col) [serve] and back.
//
// Same 6d length and the same 3d service position as the column rail.
// Only meaningful for ModulesAtLeaves.
func (t Topology) requestPathRowRail(proc, row, col int) []uint64 {
	d := t.Depth
	path := make([]uint64, 0, 6*d)
	// Down row tree `proc` to leaf column `row`.
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindRow, dirDown, proc, l, row>>(d-l)))
	}
	// Up column tree `row` from leaf position `proc` to the coalesced root.
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindCol, dirUp, row, l, proc>>(d-l)))
	}
	// Down ROW tree `row` to leaf column `col` — the rail switch.
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindRow, dirDown, row, l, col>>(d-l)))
	}
	// --- service at leaf (row, col) ---
	// Reply: exact reverse.
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindRow, dirUp, row, l, col>>(d-l)))
	}
	for l := 1; l <= d; l++ {
		path = append(path, edgeID(kindCol, dirDown, row, l, proc>>(d-l)))
	}
	for l := d; l >= 1; l-- {
		path = append(path, edgeID(kindRow, dirUp, proc, l, row>>(d-l)))
	}
	return path
}
