// Multi-engine execution: K independent quorum Machines — one per workload
// shard, each serving its own simulated P-RAM program — run concurrently
// against ONE sharded memory image.
//
// The concurrency unit is the memory module (see the package doc's
// "Shard-ownership invariant"). Each step the Pool partitions the shard
// batches into MODULE-CONNECTIVITY COMPONENTS: the finest grouping in
// which two batches that touch any common module (any module holding a
// copy of a variable either batch accesses) land in the same group. The
// union-find mirrors the 2DMOT router's tree-connectivity components one
// level up the stack: what trees are to a phase's packets, modules are to
// a step's batches. Components share no store segments and no module
// clocks, so they execute fully in parallel; batches inside a component
// are executed serially in ascending shard order by a single worker — the
// deterministic merge that resolves module contention without a lock. The
// result is bit-for-bit identical to executing every shard serially in
// index order (pool differential tests), so the Engines knob trades
// wall-clock only.
//
// The worker pool is bounded and persistent: the caller participates as
// worker 0, background workers park on a token channel between steps and
// pull components off an atomic cursor, and a runtime cleanup retires the
// goroutines when the Pool becomes unreachable. Steady-state ExecuteSteps performs zero heap allocations
// (TestPoolExecuteStepsZeroAllocs).
package quorum

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// PoolConfig tunes construction of a multi-engine Pool.
type PoolConfig struct {
	// Engines is the number of workload shards K, each served by its own
	// Machine: 0 consults the PRAMSIM_ENGINES environment variable
	// (absent/off → 1), > 0 uses exactly that many, < 0 uses GOMAXPROCS.
	Engines int
	// Procs is the processor count of EACH shard's simulated P-RAM.
	Procs int
	// Mode is the per-shard conflict convention.
	Mode model.Mode
	// Workers bounds the goroutines executing components: 0 selects
	// min(Engines, GOMAXPROCS), 1 forces serial execution on the caller,
	// > 1 uses that many, < 0 uses GOMAXPROCS — in every case clamped to
	// Engines, since a step never has more components than shards.
	// Execution is bit-for-bit identical at every setting.
	Workers int
	// TwoStage, when non-nil, selects the faithful UW'87 two-stage
	// schedule on every shard machine.
	TwoStage *TwoStageConfig
}

// Pool owns a sharded Store and K Machines serving independent P-RAM
// programs against it. All exported methods must be called from one
// goroutine (the pool spreads work internally); per-shard programs are
// typically driven by internal/machine on top.
type Pool struct {
	store    *Store
	machines []*Machine
	k        int // engines (workload shards)
	n        int // processors per shard
	par      int // worker goroutines (caller included)

	// Construction inputs, kept so Resize can build additional shard
	// machines identical to the originals.
	name       string
	newNet     func(shard int) Interconnect
	mode       model.Mode
	twoStage   *TwoStageConfig
	cfgWorkers int // the PoolConfig.Workers encoding, re-resolved on Resize

	// Step-scoped partition state. modOwner/modStamp are per module and
	// stamped per step so they never need clearing; the union-find and
	// component buffers are K-sized.
	step       int64
	modOwner   []int32
	modStamp   []int64
	ufParent   []int32
	compID     []int32
	compCnt    []int32
	compEnd    []int32
	compShards []int32
	lastComp   int
	lastActive int

	batches []model.Batch // current step's shard batches (set for the step)
	dedup   []DedupStep   // current step's pre-deduplicated batches (replay)
	reports []model.StepReport
	agg     model.StepReport

	// sink, when non-nil, is notified after every ExecuteSteps round
	// (StepBarrier); the shard machines carry the per-lane RecordStep
	// hooks (SetStepSink).
	sink StepSink

	workers *poolWorkers
}

// poolWorkers is the persistent background-goroutine set of one Pool. The
// calling goroutine acts as worker 0; workers park on the start channel
// between steps and pull components off the atomic cursor.
type poolWorkers struct {
	stop     chan struct{}
	stopOnce sync.Once
	start    chan struct{}
	wg       sync.WaitGroup
	next     atomic.Int32

	// Step-shared state, written by the caller before the start tokens are
	// sent (the sends publish it) and cleared when the step ends so the
	// worker set never keeps the Pool alive.
	p     *Pool
	ncomp int32
}

// NewPool builds K shard machines over store, each with its own
// interconnect from newNet (interconnects hold per-engine routing scratch
// and must not be shared). Shard machines are named name[k].
func NewPool(name string, store *Store, newNet func(shard int) Interconnect, cfg PoolConfig) *Pool {
	k := ResolveEngines(cfg.Engines)
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("quorum.NewPool: Procs=%d < 1", cfg.Procs))
	}
	p := &Pool{
		store:      store,
		machines:   make([]*Machine, k),
		k:          k,
		n:          cfg.Procs,
		name:       name,
		newNet:     newNet,
		mode:       cfg.Mode,
		cfgWorkers: cfg.Workers,
		modOwner:   make([]int32, store.Map().Modules()),
		modStamp:   make([]int64, store.Map().Modules()),
		ufParent:   make([]int32, k),
		compID:     make([]int32, k),
		compCnt:    make([]int32, k),
		compEnd:    make([]int32, k),
		compShards: make([]int32, k),
		reports:    make([]model.StepReport, k),
	}
	if cfg.TwoStage != nil {
		ts := *cfg.TwoStage
		p.twoStage = &ts
	}
	for i := range p.machines {
		p.machines[i] = p.newMachine(i)
	}
	p.par = resolveWorkers(cfg.Workers, k)
	return p
}

// newMachine builds shard i's machine from the pool's construction inputs.
func (p *Pool) newMachine(i int) *Machine {
	m := NewMachine(fmt.Sprintf("%s[%d]", p.name, i), p.n, p.mode, p.store, p.newNet(i))
	if p.twoStage != nil {
		ts := *p.twoStage
		m.SetTwoStage(&ts)
	}
	if p.sink != nil {
		m.SetStepSink(p.sink, i)
	}
	return m
}

// ResolveEngines maps the PoolConfig.Engines / core.Config.Engines
// encoding to a concrete shard count ≥ 1: 0 consults PRAMSIM_ENGINES,
// < 0 uses GOMAXPROCS.
func ResolveEngines(k int) int {
	if k == 0 {
		k = envEngines()
	}
	if k < 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k < 1 {
		k = 1
	}
	return k
}

// envEngines reads the PRAMSIM_ENGINES environment variable: an integer
// engine count, or "on"/"true"/"max" for GOMAXPROCS; unset, empty, "off",
// "false" or "0" select a single engine. Any other value panics: a
// malformed knob silently collapsing to one engine would let CI
// pool-equivalence runs test nothing.
func envEngines() int {
	switch v := os.Getenv("PRAMSIM_ENGINES"); v {
	case "", "off", "false", "0":
		return 1
	case "on", "true", "max":
		return runtime.GOMAXPROCS(0)
	default:
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			panic(fmt.Sprintf(
				"quorum: PRAMSIM_ENGINES=%q is not a valid engine count (want an integer >= 1, on/true/max, or off/false/0); refusing to fall back to one engine silently", v))
		}
		return n
	}
}

// resolveWorkers maps the PoolConfig.Workers encoding to a goroutine count
// in [1, k]: more workers than components can ever exist would only park.
func resolveWorkers(w, k int) int {
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > k {
		w = k
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Engines returns K, the number of workload shards.
func (p *Pool) Engines() int { return p.k }

// ShardProcs returns the processor count of each shard's simulated P-RAM.
func (p *Pool) ShardProcs() int { return p.n }

// Workers returns the resolved executor goroutine count.
func (p *Pool) Workers() int { return p.par }

// Machine returns shard k's Machine (for per-shard tuning in tests).
func (p *Pool) Machine(k int) *Machine { return p.machines[k] }

// Store returns the shared sharded store.
func (p *Pool) Store() *Store { return p.store }

// LastComponents reports how many module-connectivity components the most
// recent ExecuteSteps partitioned its batches into — K when every shard
// touched disjoint modules (full parallelism), 1 when contention merged
// everything into one serial chain.
func (p *Pool) LastComponents() int { return p.lastComp }

// LastActive reports how many shards of the most recent ExecuteSteps /
// ExecuteDedupSteps round carried any work (at least one non-idle request).
// Idle shards are always singleton components, so a round with no forced
// serial merges has LastComponents() == Engines(); the serving front end
// uses K − LastComponents() as the round's forced-merge count and
// LastActive() as its occupancy.
func (p *Pool) LastActive() int { return p.lastActive }

// LastDedupRequests reports the post-dedup batch size — deduplicated read
// plus write requests — of the step shard sh most recently executed
// through ExecuteSteps. It reads the sizes the dedup pass left in the
// shard machine's scratch, so observing it costs nothing on the execution
// path (unlike a StepSink, which makes every step materialize its reader
// fan-out lists). Valid between rounds for shards that executed a non-empty
// batch; an idle shard reports 0.
func (p *Pool) LastDedupRequests(sh int) int {
	return p.machines[sh].LastDedupRequests()
}

// LastStepBreakdown reports the per-leg split — read-quorum time, read
// phases, live-request area — of the step shard sh most recently
// executed through ExecuteSteps (Machine.LastStepBreakdown). Like
// LastDedupRequests it reads shard-machine scratch, so observing it is
// free; valid between rounds for shards that executed a non-empty batch.
func (p *Pool) LastStepBreakdown(sh int) (readTime int64, readPhases int, liveArea int64) {
	return p.machines[sh].LastStepBreakdown()
}

// ShardInterconnect exposes shard sh's fabric (Machine.Interconnect) so
// observers can read per-shard routing counters without a StepSink.
func (p *Pool) ShardInterconnect(sh int) Interconnect {
	return p.machines[sh].Interconnect()
}

// Close retires the pool's background executor goroutines NOW instead of
// waiting for the runtime cleanup at collection time — the graceful-
// shutdown hook of a serving deployment. The pool stays usable: a later
// ExecuteSteps restarts the workers lazily. Safe to call repeatedly.
func (p *Pool) Close() {
	if p.workers != nil {
		p.workers.shutdown()
		p.workers = nil
	}
}

// Resize reconfigures the pool to k workload shards ONLINE, between
// rounds: growing appends fresh machines (identical construction to the
// originals — same store, same per-shard interconnect factory, same mode
// and two-stage schedule), shrinking retires the top shards. The store is
// module-sharded and shared, so a resize moves NO data — it only changes
// how many concurrent lanes the next round may carry; callers that map
// work onto shards (the serving front end's band%K placement) re-band on
// top. Per-shard results stay bit-for-bit: a batch executes identically on
// any shard machine, and the component partition is re-derived every step.
//
// Must not be called concurrently with ExecuteSteps, and invalidates the
// report slices returned by earlier rounds. The worker count is re-resolved
// from the construction-time Workers encoding against the new k. Resizing
// allocates (machine construction); it is a transition, not a hot path.
func (p *Pool) Resize(k int) {
	if k < 1 {
		panic(fmt.Sprintf("quorum.Pool.Resize: k=%d < 1", k))
	}
	if k == p.k {
		return
	}
	if k < p.k {
		for i := k; i < p.k; i++ {
			p.machines[i] = nil // release retired shards' scratch
		}
		p.machines = p.machines[:k]
	} else {
		for i := p.k; i < k; i++ {
			p.machines = append(p.machines, p.newMachine(i))
		}
	}
	p.k = k
	p.ufParent = make([]int32, k)
	p.compID = make([]int32, k)
	p.compCnt = make([]int32, k)
	p.compEnd = make([]int32, k)
	p.compShards = make([]int32, k)
	p.reports = make([]model.StepReport, k)
	if par := resolveWorkers(p.cfgWorkers, k); par != p.par {
		if p.workers != nil {
			p.workers.shutdown()
			p.workers = nil
		}
		p.par = par
	}
	// Census values describe the previous round's shard set; reset so a
	// caller polling between rounds never reads occupancy above the new k.
	if p.lastComp > k {
		p.lastComp = k
	}
	if p.lastActive > k {
		p.lastActive = k
	}
}

// SetStepSink attaches a step sink to every shard machine — shard k
// records under lane k, the trace format's shard-lane layout — and to the
// pool itself, which calls sink.StepBarrier after every ExecuteSteps round
// (nil detaches everywhere). Attach before the first step; see
// Machine.SetStepSink.
func (p *Pool) SetStepSink(sink StepSink) {
	p.sink = sink
	for k, m := range p.machines {
		m.SetStepSink(sink, k)
	}
}

// ExecuteSteps runs one P-RAM step per workload shard — batches[k] on
// shard k's machine — and returns the deterministic aggregate report plus
// the per-shard reports. len(batches) must equal Engines(); idle shards
// pass an empty (or all-OpNone) batch.
//
// Aliasing: the per-shard reports alias each shard machine's scratch
// (valid until that shard's next step); the aggregate's Values alias a
// pool-owned buffer (valid until the next ExecuteSteps). Copy them to keep
// them.
//
//pram:hotpath
func (p *Pool) ExecuteSteps(batches []model.Batch) (model.StepReport, []model.StepReport) {
	if len(batches) != p.k {
		//pram:coldalloc caller-contract panic guard, never taken in steady state
		panic(fmt.Sprintf("quorum.Pool: %d batches for %d engines", len(batches), p.k))
	}
	ncomp := p.partition(batches)
	p.batches = batches
	p.dispatch(ncomp)
	p.batches = nil

	model.MergeStepReports(&p.agg, p.reports, p.n)
	if p.sink != nil {
		p.sink.StepBarrier()
	}
	return p.agg, p.reports
}

// DedupStep is one shard's pre-deduplicated step — the post-dedup read and
// write batches plus the reader fan-out lists a StepSink captured — the
// unit Pool.ExecuteDedupSteps replays. See Machine.ExecuteDedupStep for
// the field semantics.
type DedupStep struct {
	Reads       []Request
	ReaderOff   []int32
	ReaderProcs []int32
	Writes      []Request
}

// ExecuteDedupSteps is ExecuteSteps for pre-deduplicated steps — the
// replay entry point. It partitions the shard steps into the same
// module-connectivity components (the request batches name exactly the
// variables the original batches touched, so the components match the
// recorded run's) and executes each shard via ExecuteDedupStep. Aliasing
// and determinism contracts are ExecuteSteps'; step sinks are NOT invoked.
//
//pram:hotpath
func (p *Pool) ExecuteDedupSteps(steps []DedupStep) (model.StepReport, []model.StepReport) {
	if len(steps) != p.k {
		//pram:coldalloc caller-contract panic guard, never taken in steady state
		panic(fmt.Sprintf("quorum.Pool: %d dedup steps for %d engines", len(steps), p.k))
	}
	ncomp := p.partitionDedup(steps)
	p.dedup = steps
	p.dispatch(ncomp)
	p.dedup = nil

	model.MergeStepReports(&p.agg, p.reports, p.n)
	return p.agg, p.reports
}

// dispatch executes the partitioned components — serially on the caller,
// or on the worker pool when both the worker count and the component count
// allow parallelism.
func (p *Pool) dispatch(ncomp int) {
	p.lastComp = ncomp
	if p.par == 1 || ncomp == 1 {
		// Serial path: every component on the caller, in component order.
		for c := 0; c < ncomp; c++ {
			p.runComponent(c)
		}
		return
	}
	w := p.ensureWorkers()
	w.p, w.ncomp = p, int32(ncomp)
	w.next.Store(0)
	wake := p.par - 1
	if ncomp-1 < wake {
		wake = ncomp - 1
	}
	w.wg.Add(wake)
	for i := 0; i < wake; i++ {
		w.start <- struct{}{}
	}
	w.drain()
	w.wg.Wait()
	w.p = nil
}

// partition groups the step's shard batches into module-connectivity
// components and orders them for execution: components are numbered by
// their smallest shard index, and shards within a component stay in
// ascending order — the serial reference order, which is what makes the
// merge deterministic.
func (p *Pool) partition(batches []model.Batch) int {
	p.partitionReset()
	p.lastActive = 0
	for k, b := range batches {
		active := false
		for i := range b {
			if b[i].Op == model.OpNone {
				continue
			}
			active = true
			p.touchVar(int32(k), b[i].Addr)
		}
		if active {
			p.lastActive++
		}
	}
	return p.numberComponents()
}

// partitionDedup is partition over pre-deduplicated steps: the request
// batches name exactly the variables the original batches touched (dedup
// only collapses duplicates), so the component structure is identical.
func (p *Pool) partitionDedup(steps []DedupStep) int {
	p.partitionReset()
	p.lastActive = 0
	for k := range steps {
		if len(steps[k].Reads) > 0 || len(steps[k].Writes) > 0 {
			p.lastActive++
		}
		for i := range steps[k].Reads {
			p.touchVar(int32(k), steps[k].Reads[i].Var)
		}
		for i := range steps[k].Writes {
			p.touchVar(int32(k), steps[k].Writes[i].Var)
		}
	}
	return p.numberComponents()
}

// partitionReset opens a new step's partition epoch.
func (p *Pool) partitionReset() {
	p.step++
	for i := range p.ufParent {
		p.ufParent[i] = int32(i)
		p.compID[i] = -1
	}
}

// touchVar links shard k to every module holding a copy of variable v,
// merging it with any shard that touched one of them earlier this step.
func (p *Pool) touchVar(k int32, v int) {
	for _, mod := range p.store.Map().Copies(v) {
		if p.modStamp[mod] != p.step {
			p.modStamp[mod] = p.step
			p.modOwner[mod] = k
		} else {
			p.union(k, p.modOwner[mod])
		}
	}
}

// numberComponents finishes a partition epoch.
func (p *Pool) numberComponents() int {
	// Number components by first appearance (ascending shard index) and
	// counting-sort the shards by component, preserving shard order.
	ncomp := int32(0)
	for k := 0; k < p.k; k++ {
		r := p.find(int32(k))
		if p.compID[r] < 0 {
			p.compID[r] = ncomp
			p.compCnt[ncomp] = 0
			ncomp++
		}
		p.compCnt[p.compID[r]]++
	}
	off := int32(0)
	for c := int32(0); c < ncomp; c++ {
		off += p.compCnt[c]
		p.compEnd[c] = off
		p.compCnt[c] = off - p.compCnt[c] // becomes the fill cursor
	}
	for k := 0; k < p.k; k++ {
		id := p.compID[p.find(int32(k))]
		p.compShards[p.compCnt[id]] = int32(k)
		p.compCnt[id]++
	}
	return int(ncomp)
}

// find returns the root of a union-find node with path halving.
func (p *Pool) find(x int32) int32 {
	for p.ufParent[x] != x {
		p.ufParent[x] = p.ufParent[p.ufParent[x]]
		x = p.ufParent[x]
	}
	return x
}

// union links the components of two shards. Linking the larger root under
// the smaller keeps roots deterministic without a size array: component
// identity below only depends on the partition, not the link shape.
func (p *Pool) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	p.ufParent[rb] = ra
}

// runComponent executes one component's shard steps serially in ascending
// shard order, from whichever source (live batches or pre-deduplicated
// replay steps) the current dispatch set.
func (p *Pool) runComponent(c int) {
	beg := int32(0)
	if c > 0 {
		beg = p.compEnd[c-1]
	}
	for _, k := range p.compShards[beg:p.compEnd[c]] {
		if p.dedup != nil {
			s := &p.dedup[k]
			p.reports[k] = p.machines[k].ExecuteDedupStep(s.Reads, s.ReaderOff, s.ReaderProcs, s.Writes)
		} else {
			p.reports[k] = p.machines[k].ExecuteStep(p.batches[k])
		}
	}
}

// ensureWorkers lazily starts the background executor goroutines (the
// caller is worker 0, so par−1 goroutines are spawned).
func (p *Pool) ensureWorkers() *poolWorkers {
	if p.workers != nil {
		return p.workers
	}
	w := &poolWorkers{
		stop:  make(chan struct{}),
		start: make(chan struct{}, p.par-1),
	}
	for i := 1; i < p.par; i++ {
		go w.work()
	}
	// Retire the goroutines when the Pool is collected. The cleanup must
	// not capture p (that would keep it alive forever); workers reach p
	// only via w.p, which is cleared between steps.
	runtime.AddCleanup(p, (*poolWorkers).shutdown, w)
	p.workers = w
	return w
}

// work is the body of one background executor goroutine.
func (w *poolWorkers) work() {
	for {
		select {
		case <-w.stop:
			return
		case <-w.start:
		}
		w.drain()
		w.wg.Done()
	}
}

// drain executes components off the step's cursor until none remain.
func (w *poolWorkers) drain() {
	p := w.p
	for {
		c := w.next.Add(1) - 1
		if c >= w.ncomp {
			return
		}
		p.runComponent(int(c))
	}
}

// shutdown retires the background goroutines; safe to call twice (a worker
// set retired by Close or Resize is shut down eagerly, and the Pool's
// runtime cleanup fires for it again at collection time).
func (w *poolWorkers) shutdown() {
	w.stopOnce.Do(func() { close(w.stop) })
}
