package quorum

import (
	"fmt"

	"repro/internal/model"
)

// Attempt is one copy access scheduled in a phase: the processor proc tries
// to touch copy `Copy` of variable `Var`, which lives in memory module
// `Module` (for the 2DMOT this is a bank/column id). Write distinguishes
// update accesses from retrieval accesses. Slot carries the copy's dense
// cell index (v·r + Copy in the store's row-major cell array), resolved
// once at schedule time (interconnects ignore it; the engine's grant loop
// uses it to touch the granted cell without re-deriving the index).
type Attempt struct {
	Proc   int
	Module int
	Var    int
	Copy   int
	Slot   int32
	Write  bool
}

// Interconnect decides, for each phase, which scheduled copy accesses are
// granted and how much simulated time the phase costs. Implementations:
// the complete bipartite K(n,M) of the DMMPC (unit phases, per-module
// bandwidth), and the 2DMOT packet network (cycle-accurate, collisions).
type Interconnect interface {
	// RoutePhase processes one phase of attempts and reports which were
	// granted, the phase's simulated duration, and the peak per-module load.
	// Implementations may reuse the returned slice: its contents are only
	// valid until the next RoutePhase call on the same interconnect.
	RoutePhase(attempts []Attempt) (granted []bool, time int64, maxLoad int)
}

// CycleTimed marks interconnects whose RoutePhase time is measured in
// physical network cycles (the 2DMOT) rather than abstract protocol
// phases; the backend then surfaces the time as NetworkCycles too.
type CycleTimed interface {
	TimeInCycles() bool
}

// Request is one deduplicated variable access for the engine: an entire
// read batch or write batch of a P-RAM step, after concurrent accesses to
// the same variable have been combined/resolved by the backend.
type Request struct {
	Proc  int // representative issuing processor (cluster owner, priority)
	Var   int
	Write bool
	Value model.Word // payload when Write
}

// Result reports the cost and outcome of executing one access batch.
//
// The Values, Satisfied and LiveTrace slices alias the engine's reusable
// scratch arena: they are valid until the next ExecuteBatch or
// ExecuteBatchTwoStage call on the same engine, and must be copied if they
// need to outlive it.
type Result struct {
	Phases        int
	Time          int64
	CopyAccesses  int64
	MaxModuleLoad int
	LiveTrace     []int // live (unsatisfied) requests after each phase
	Values        []model.Word
	Satisfied     []bool
	Stalled       bool // progress cap hit (bad map or broken interconnect)
	// Stage1Phases/Stage2Phases break Phases down when the two-stage
	// schedule is used (ExecuteBatchTwoStage); zero otherwise.
	Stage1Phases int
	Stage2Phases int
}

// Engine runs the cluster-based two-stage access protocol over a store and
// an interconnect.
//
// All per-batch working state lives in a scratch arena owned by the engine
// and reused across batches, so in steady state ExecuteBatch performs zero
// heap allocations (an invariant locked in by TestExecuteBatchZeroAllocs).
// The arena makes an Engine single-threaded: one batch at a time.
type Engine struct {
	store    *Store
	net      Interconnect
	n        int // processors
	c        int // quorum size
	r        int // redundancy 2c−1 (= cluster size)
	clusters int // ⌈n/r⌉

	// MaxPhases caps the phase loop so corrupted maps surface as a stalled
	// Result instead of an infinite loop. Zero selects a generous default.
	MaxPhases int

	sc engineScratch
}

// engineScratch is the engine's reusable per-batch arena. Buffers grow to
// the largest batch seen and are then recycled forever.
type engineScratch struct {
	states   []reqState
	qstart   []int // per-cluster queue offsets into qbuf (len clusters+1)
	qfill    []int // per-cluster fill cursors during bucketing
	qbuf     []int // request indices, bucketed by cluster
	rr       []int // per-cluster round-robin cursors
	attempts []Attempt
	owners   []int // parallel to attempts: request index
	trace    []int // live-trace accumulator (spans both two-stage stages)

	// Primary result buffers back the Result of the exported entry points;
	// the secondary set backs the inner stage-2 run of the two-stage
	// schedule, which must not clobber the stage-1 result it merges into.
	values     []model.Word
	satisfied  []bool
	values2    []model.Word
	satisfied2 []bool
	liveReqs   []Request
	liveIdx    []int
}

// NewEngine returns an engine for n processors over store and net.
func NewEngine(store *Store, net Interconnect, n int) *Engine {
	p := store.Map().P
	r := p.R()
	if cb, ok := net.(*CompleteBipartite); ok {
		cb.modules = store.Map().Modules()
	}
	return &Engine{
		store:    store,
		net:      net,
		n:        n,
		c:        p.C,
		r:        r,
		clusters: (n + r - 1) / r,
	}
}

// maxPhases returns the stall cap.
func (e *Engine) maxPhases(requests int) int {
	if e.MaxPhases > 0 {
		return e.MaxPhases
	}
	// Even a fully serialized system needs only ~requests·c module grants;
	// grant at least one per phase and pad generously.
	return requests*e.c*4 + 64*e.r + 256
}

// reqState tracks one live request through the phases.
type reqState struct {
	accessed  uint64 // bitmask of copies touched (r ≤ 64 always holds here)
	count     int
	done      bool
	bestTS    uint64
	bestVal   model.Word
	anyAccess bool
}

// grow resizes buf to n entries, reusing its backing array when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// primaryBuffers returns the cleared result buffers for an exported batch.
func (e *Engine) primaryBuffers(n int) ([]model.Word, []bool) {
	e.sc.values = grow(e.sc.values, n)
	e.sc.satisfied = grow(e.sc.satisfied, n)
	clear(e.sc.values)
	clear(e.sc.satisfied)
	return e.sc.values, e.sc.satisfied
}

// secondaryBuffers returns the cleared result buffers for the stage-2 sub-run.
func (e *Engine) secondaryBuffers(n int) ([]model.Word, []bool) {
	e.sc.values2 = grow(e.sc.values2, n)
	e.sc.satisfied2 = grow(e.sc.satisfied2, n)
	clear(e.sc.values2)
	clear(e.sc.satisfied2)
	return e.sc.values2, e.sc.satisfied2
}

// ExecuteBatch runs the protocol on one batch of deduplicated requests and
// returns per-request read values plus the phase/time accounting.
//
// Protocol shape (faithful to UW'87 as used by the paper, §1–2): processors
// are organized in clusters of 2c−1; in each phase every cluster advances
// round-robin to its next live request and its member processors attempt
// the request's still-unaccessed copies in distinct modules. Granted
// accesses accumulate; a request dies (is satisfied) once c copies are
// touched. The memory map's expansion property makes the live-set shrink
// geometrically, which the LiveTrace in the Result lets tests verify.
func (e *Engine) ExecuteBatch(reqs []Request) Result {
	e.sc.trace = e.sc.trace[:0]
	values, satisfied := e.primaryBuffers(len(reqs))
	return e.run(reqs, values, satisfied)
}

// run executes one batch into the given result buffers, appending the live
// trace to the shared arena accumulator (so the two-stage schedule's stages
// land in one contiguous trace).
//
//pram:hotpath
func (e *Engine) run(reqs []Request, values []model.Word, satisfied []bool) Result {
	res := Result{Values: values, Satisfied: satisfied}
	if len(reqs) == 0 {
		return res
	}
	if e.r > 64 {
		//pram:coldalloc guarded construction-error panic, unreachable in steady state
		panic(fmt.Sprintf("quorum.Engine: redundancy %d exceeds bitmask width", e.r))
	}
	now := e.store.StampBatch(reqs)
	sc := &e.sc
	sc.states = grow(sc.states, len(reqs))
	states := sc.states
	for i := range states {
		states[i] = reqState{}
	}

	// Bucket requests by the cluster of their issuing processor, preserving
	// batch order within each cluster (a counting sort into a flat buffer).
	clusters := e.clusters
	sc.qstart = grow(sc.qstart, clusters+1)
	sc.qfill = grow(sc.qfill, clusters)
	sc.qbuf = grow(sc.qbuf, len(reqs))
	sc.rr = grow(sc.rr, clusters)
	clear(sc.qfill)
	clear(sc.rr)
	for _, rq := range reqs {
		sc.qfill[e.clusterOf(rq.Proc)]++
	}
	off := 0
	for k := 0; k < clusters; k++ {
		sc.qstart[k] = off
		off += sc.qfill[k]
		sc.qfill[k] = sc.qstart[k]
	}
	sc.qstart[clusters] = off
	for i, rq := range reqs {
		k := e.clusterOf(rq.Proc)
		sc.qbuf[sc.qfill[k]] = i
		sc.qfill[k]++
	}

	live := len(reqs)
	phaseCap := e.maxPhases(len(reqs))
	traceStart := len(sc.trace)
	attempts := sc.attempts[:0]
	owners := sc.owners[:0]
	for phase := 0; live > 0; phase++ {
		if phase >= phaseCap {
			res.Stalled = true
			break
		}
		attempts = attempts[:0]
		owners = owners[:0]
		for k := 0; k < clusters; k++ {
			idx := e.nextLive(sc.qbuf[sc.qstart[k]:sc.qstart[k+1]], &sc.rr[k], states)
			if idx < 0 {
				continue
			}
			attempts, owners = e.scheduleRequest(k, idx, reqs[idx], &states[idx], attempts, owners)
		}
		granted, t, load := e.net.RoutePhase(attempts)
		res.Phases++
		res.Time += t
		if load > res.MaxModuleLoad {
			res.MaxModuleLoad = load
		}
		for ai, ok := range granted {
			if !ok {
				continue
			}
			a := attempts[ai]
			st := &states[owners[ai]]
			if st.accessed&(1<<uint(a.Copy)) != 0 {
				continue // duplicate grant of the same copy; ignore
			}
			st.accessed |= 1 << uint(a.Copy)
			st.count++
			res.CopyAccesses++
			if a.Write {
				e.store.WriteSlot(a.Slot, reqs[owners[ai]].Value, now)
			} else {
				v, ts := e.store.ReadSlot(a.Slot)
				if !st.anyAccess || ts > st.bestTS {
					st.bestTS, st.bestVal = ts, v
				}
				st.anyAccess = true
			}
			if st.count >= e.c && !st.done {
				st.done = true
				live--
			}
		}
		sc.trace = append(sc.trace, live)
	}
	sc.attempts = attempts
	sc.owners = owners
	res.LiveTrace = sc.trace[traceStart:len(sc.trace):len(sc.trace)]
	for i := range reqs {
		satisfied[i] = states[i].done
		if !reqs[i].Write && states[i].anyAccess {
			values[i] = states[i].bestVal
		}
	}
	return res
}

// clusterOf maps a processor id to its cluster, clamping overflow ids into
// the last (possibly short) cluster.
func (e *Engine) clusterOf(proc int) int {
	k := proc / e.r
	if k >= e.clusters {
		k = e.clusters - 1
	}
	return k
}

// nextLive advances a cluster's round-robin cursor to its next unsatisfied
// request, returning −1 if none remain.
func (e *Engine) nextLive(queue []int, cursor *int, states []reqState) int {
	for scanned := 0; scanned < len(queue); scanned++ {
		idx := queue[*cursor%len(queue)]
		*cursor++
		if !states[idx].done {
			return idx
		}
	}
	return -1
}

// scheduleRequest assigns the member processors of cluster k to the live
// (unaccessed) copies of request idx, one attempt per processor, each in a
// distinct module by the map's distinctness invariant.
func (e *Engine) scheduleRequest(k, idx int, rq Request, st *reqState, attempts []Attempt, owners []int) ([]Attempt, []int) {
	base := k * e.r
	end := base + e.r
	if end > e.n {
		end = e.n
	}
	members := end - base
	copies := e.store.Map().Copies(rq.Var)
	rowBase := int32(rq.Var * e.r)
	member := 0
	for j := 0; j < e.r && member < members; j++ {
		if st.accessed&(1<<uint(j)) != 0 {
			continue
		}
		attempts = append(attempts, Attempt{
			Proc:   base + member,
			Module: int(copies[j]),
			Var:    rq.Var,
			Copy:   j,
			Slot:   rowBase + int32(j),
			Write:  rq.Write,
		})
		owners = append(owners, idx)
		member++
	}
	return attempts, owners
}
