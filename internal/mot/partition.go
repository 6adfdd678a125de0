package mot

// claimEdgeProbe is the cold continuation of an edge claim whose home slot
// h held a same-cycle claim for a DIFFERENT edge: keep open-addressing from
// h+1 until a free (older-cycle) slot is claimed or this edge's existing
// claim is found. The hot first probe — including the idempotent-store
// trick that makes its outcome branch-free — is inlined in RoutePhase's
// cycle loop; the table is sized to 4 slots per live packet, so this
// continuation runs on well under a quarter of claims. Slots stamped with
// an older cycle count as free, so the set clears itself as the clock
// advances. Free function over a hoisted (slots, mask) pair so the loop
// keeps the table in registers.
func claimEdgeProbe(slots []edgeSlot, mask int, key int32, cycle int64, h int) bool {
	for {
		h = (h + 1) & mask
		s := &slots[h]
		if s.cycle != cycle {
			s.cycle = cycle
			s.key = key
			return true
		}
		if s.key == key {
			return false
		}
	}
}

// partition groups the active list (already in priority order) into
// tree-connectivity components — the finest grouping in which two packets
// that share any row/column tree or any module leaf land together (see the
// package doc's tree-partition invariant). It is a union-find pass over
// the 2·side tree nodes plus the phase's interned module nodes, each
// packet contributing the ≤ 3 trees its path traverses (stashed in
// pktTrees during setup) plus its module node, followed by a numbering
// pass that labels components in order of first appearance (priority
// order) and counts packets per component. On return compOf[j] is the
// component id of active[j] and compCnt[id] its packet count; RoutePhase
// resolves the singleton components analytically.
//
//pram:hotpath
func (nw *Network) partition(active []int32) {
	side := nw.topo.Side
	// --- Union-find over 2·side tree nodes + modCount module nodes. ---
	nodes := 2*side + int(nw.modCount)
	if len(nw.ufParent) < nodes {
		nw.ufParent = make([]int32, nodes)
		nw.ufSize = make([]int32, nodes)
		nw.ufStamp = make([]int64, nodes)
	}
	modBase := int32(2 * side)
	for _, pi := range active {
		t0, t1, t2 := nw.pktTrees[3*pi], nw.pktTrees[3*pi+1], nw.pktTrees[3*pi+2]
		r := nw.ufUnion(nw.ufFind(t0), nw.ufFind(t1))
		if t2 >= 0 {
			r = nw.ufUnion(r, nw.ufFind(t2))
		}
		nw.ufUnion(r, nw.ufFind(modBase+nw.pktMod[pi]))
	}
	// --- Number components in order of first appearance (priority order),
	// counting packets per component. The root's size field is repurposed
	// as −(id+1) once all unions are done. ---
	compCnt := nw.compCnt[:0]
	compOf := nw.compOf[:0]
	for _, pi := range active {
		r := nw.ufFind(nw.pktTrees[3*pi])
		var id int32
		if s := nw.ufSize[r]; s >= 0 {
			id = int32(len(compCnt))
			nw.ufSize[r] = -id - 1
			compCnt = append(compCnt, 0)
		} else {
			id = -s - 1
		}
		compCnt[id]++
		compOf = append(compOf, id)
	}
	nw.compCnt, nw.compOf = compCnt, compOf
}

// ufFind returns the root of a union-find node, lazily (re)initializing
// nodes on their first touch each phase via the phase stamp and halving
// paths as it walks.
func (nw *Network) ufFind(x int32) int32 {
	if nw.ufStamp[x] != nw.phase {
		nw.ufStamp[x] = nw.phase
		nw.ufParent[x] = x
		nw.ufSize[x] = 1
		return x
	}
	for nw.ufParent[x] != x {
		nw.ufParent[x] = nw.ufParent[nw.ufParent[x]]
		x = nw.ufParent[x]
	}
	return x
}

// ufUnion links two roots by size and returns the surviving root.
func (nw *Network) ufUnion(a, b int32) int32 {
	if a == b {
		return a
	}
	if nw.ufSize[a] < nw.ufSize[b] {
		a, b = b, a
	}
	nw.ufParent[b] = a
	nw.ufSize[a] += nw.ufSize[b]
	return a
}

// growSlice resizes buf to n entries, reusing its backing array when able.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
