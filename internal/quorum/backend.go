package quorum

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
)

// StallError reports that the protocol failed to drain a step's requests
// within the phase cap — the observable symptom of a memory map without the
// expansion property (or of a broken interconnect).
type StallError struct {
	Batch  string
	Phases int
	Live   int
}

// Error implements the error interface.
func (e *StallError) Error() string {
	return fmt.Sprintf("quorum protocol stalled: %s batch stopped after %d phases with %d live requests",
		e.Batch, e.Phases, e.Live)
}

// Machine adapts the quorum engine into a full model.Backend: it converts a
// P-RAM step into a deduplicated read batch followed by a write batch,
// preserving P-RAM semantics (reads see pre-step state; write conflicts
// resolved per Mode) while the engine charges phases/time.
//
// It is the shared chassis of the MPC baseline (Lemma 1 parameters) and the
// paper's DMMPC (Lemma 2 parameters); the 2DMOT machine plugs in a packet
// network as the Interconnect.
//
// ExecuteStep is allocation-free in steady state: concurrent accesses are
// deduplicated by sorting a reusable record slice (grouped by address)
// instead of building per-step maps, and the StepReport's Values slice is a
// dense per-processor buffer reused across steps.
//
// A Machine is single-threaded, but several Machines may share one Store:
// the Pool runs one Machine per workload shard concurrently under the
// store's shard-ownership invariant (see the package doc), scheduling
// machines whose steps touch overlapping module sets onto one goroutine.
type Machine struct {
	name  string
	n     int
	mode  model.Mode
	store *Store
	eng   *Engine

	// twoStage, when non-nil, selects the faithful UW'87 two-stage
	// schedule for every batch (SetTwoStage).
	twoStage *TwoStageConfig

	// sink, when non-nil, observes every executed step's post-dedup
	// batches under lane id `lane` (SetStepSink; the trace record/replay
	// hook).
	sink StepSink
	lane int

	// Read-leg breakdown of the most recent ExecuteStep, captured before
	// the write batch clobbers the engine's shared result buffers: the
	// retrieval leg's time and phase count plus the step's live-request
	// area (Σ live counts over both legs' phase traces). Free accessors
	// (LastStepBreakdown) in the LastDedupRequests mold; the serving
	// lane's span recorder reads them instead of attaching a StepSink.
	lastReadTime   int64
	lastReadPhases int
	lastLiveArea   int64

	sc stepScratch
}

// stepScratch holds the Machine's reusable per-step buffers.
type stepScratch struct {
	recs      []model.ConflictRec
	recsTmp   []model.ConflictRec // radix sort ping-pong buffer
	readReqs  []Request
	readStart []int32 // per read request: start of its reader run in recs
	readEnd   []int32 // per read request: end of its reader run in recs
	writeReqs []Request
	values    []model.Word // dense per-proc read values (the StepReport.Values buffer)

	// Reader fan-out lists for the step sink (buildReaderLists); only
	// recording runs populate them.
	readerOff   []int32
	readerProcs []int32
}

// NewMachine assembles a quorum-protocol backend.
func NewMachine(name string, n int, mode model.Mode, store *Store, net Interconnect) *Machine {
	return &Machine{
		name:  name,
		n:     n,
		mode:  mode,
		store: store,
		eng:   NewEngine(store, net, n),
	}
}

// Engine exposes the underlying engine (for tuning MaxPhases in tests).
func (m *Machine) Engine() *Engine { return m.eng }

// SetTwoStage switches the machine to the two-stage schedule (nil reverts
// to the plain round-robin loop).
func (m *Machine) SetTwoStage(cfg *TwoStageConfig) { m.twoStage = cfg }

// runBatch dispatches a deduplicated batch to the configured scheduler.
func (m *Machine) runBatch(reqs []Request) Result {
	if m.twoStage != nil {
		return m.eng.ExecuteBatchTwoStage(reqs, *m.twoStage)
	}
	return m.eng.ExecuteBatch(reqs)
}

// Store exposes the underlying copy store.
func (m *Machine) Store() *Store { return m.store }

// Name implements model.Backend.
func (m *Machine) Name() string { return m.name }

// MemSize implements model.Backend.
func (m *Machine) MemSize() int { return m.store.Map().Vars() }

// Procs implements model.Backend.
func (m *Machine) Procs() int { return m.n }

// Mode returns the conflict convention.
func (m *Machine) Mode() model.Mode { return m.mode }

// Params returns the memory-map parameter point the machine runs at.
func (m *Machine) Params() string { return m.store.Map().P.String() }

// Redundancy returns the copies-per-variable the machine pays.
func (m *Machine) Redundancy() int { return m.store.Map().R() }

// ExecuteStep implements model.Backend.
//
//pram:hotpath
func (m *Machine) ExecuteStep(batch model.Batch) model.StepReport {
	sc := &m.sc

	// Flatten the step's active requests and sort them by address, reads
	// before writes within a group, ascending processor ids within each
	// run — one sort replaces the per-step readersOf/winner maps AND feeds
	// the conflict check (which only needs address grouping).
	recs := sc.recs[:0]
	maxProc := m.n - 1
	maxAddr := model.Addr(0)
	radixable := true // ascending procs, non-negative addresses
	prevProc := -1
	for _, r := range batch {
		if r.Op == model.OpNone {
			continue
		}
		recs = append(recs, model.ConflictRec{Addr: r.Addr, Proc: r.Proc, Val: r.Value, Write: r.Op == model.OpWrite})
		if r.Proc > maxProc {
			maxProc = r.Proc
		}
		if r.Proc <= prevProc || r.Addr < 0 {
			radixable = false
		}
		prevProc = r.Proc
		if r.Addr > maxAddr {
			maxAddr = r.Addr
		}
	}
	if radixable {
		// Batches list requests in ascending processor order (Batch is
		// indexed by processor), so a stable radix pass on (Addr, Write)
		// produces the full (Addr, Write, Proc) order ~4x cheaper than the
		// comparison sort — the dedup pass was the largest remaining step
		// cost at n ≥ 1024.
		sc.recsTmp = grow(sc.recsTmp, len(recs))
		recs, sc.recsTmp = model.RadixSortConflictRecs(recs, sc.recsTmp[:len(recs)], maxAddr)
	} else {
		// Rare path: direct callers with out-of-order processors.
		slices.SortFunc(recs, func(a, b model.ConflictRec) int {
			if a.Addr != b.Addr {
				return cmp.Compare(a.Addr, b.Addr)
			}
			if a.Write != b.Write {
				if a.Write {
					return 1
				}
				return -1
			}
			return cmp.Compare(a.Proc, b.Proc)
		})
	}
	sc.recs = recs

	var rep model.StepReport
	rep.Err = model.CheckSortedRecords(recs, m.mode)

	sc.values = grow(sc.values, maxProc+1)
	values := sc.values
	clear(values)
	rep.Values = values

	// One walk over the address groups builds both deduplicated batches:
	// per address, the readers [i,k) get one read request owned by the
	// lowest-processor reader, and the writers [k,j) resolve to one write
	// request per Mode — Priority (and the EREW/CREW/common fallback)
	// takes the first (lowest-proc) writer, Arbitrary the last.
	readReqs := sc.readReqs[:0]
	readStart := sc.readStart[:0]
	readEnd := sc.readEnd[:0]
	writeReqs := sc.writeReqs[:0]
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].Addr == recs[i].Addr {
			j++
		}
		k := i
		for k < j && !recs[k].Write {
			k++
		}
		if k > i {
			readReqs = append(readReqs, Request{Proc: recs[i].Proc, Var: recs[i].Addr})
			readStart = append(readStart, int32(i))
			readEnd = append(readEnd, int32(k))
		}
		if k < j {
			w := recs[k]
			if m.mode == model.CRCWArbitrary {
				w = recs[j-1]
			}
			writeReqs = append(writeReqs, Request{Proc: w.Proc, Var: w.Addr, Write: true, Value: w.Val})
		}
		i = j
	}
	sc.readReqs = readReqs
	sc.readStart = readStart
	sc.readEnd = readEnd
	sc.writeReqs = writeReqs

	rres := m.runBatch(readReqs)
	// Fan the per-address values out to every reader NOW: the write batch
	// below reuses the engine's result buffers.
	for g := range readReqs {
		v := rres.Values[g]
		for k := readStart[g]; k < readEnd[g]; k++ {
			values[recs[k].Proc] = v
		}
	}
	readLastLive := lastLive(rres)
	m.lastReadTime = rres.Time
	m.lastReadPhases = rres.Phases
	area := int64(0)
	for _, l := range rres.LiveTrace {
		area += int64(l)
	}

	wres := m.runBatch(writeReqs)
	for _, l := range wres.LiveTrace {
		area += int64(l)
	}
	m.lastLiveArea = area
	rep = m.assembleReport(rep, rres, wres, readLastLive)

	if m.sink != nil {
		off, procs := m.buildReaderLists()
		m.sink.RecordStep(m.lane, readReqs, off, procs, writeReqs, rep)
	}
	return rep
}

// LastDedupRequests reports the post-dedup batch size — deduplicated read
// plus write requests — of the most recent ExecuteStep. The sizes live in
// the machine's scratch arena, so exposing them is free; the serving lane's
// dedup-batch-size histogram observes this instead of attaching a StepSink
// (which would make every step pay for reader-list materialization).
// ExecuteDedupStep (the replay entry point) does not update it.
func (m *Machine) LastDedupRequests() int {
	return len(m.sc.readReqs) + len(m.sc.writeReqs)
}

// LastStepBreakdown reports the most recent ExecuteStep's per-leg split:
// the retrieval (read-quorum) leg's simulated time and phase count, and
// the step's live-request area — the integral of the engine's LiveTrace
// decay curve over both legs' phases. The values are captured into
// machine scratch before the write batch reuses the engine's result
// buffers, so exposing them is free; the commit leg's time is the step
// report's Time minus readTime. ExecuteDedupStep (the replay entry
// point) does not update it.
func (m *Machine) LastStepBreakdown() (readTime int64, readPhases int, liveArea int64) {
	return m.lastReadTime, m.lastReadPhases, m.lastLiveArea
}

// Interconnect exposes the machine's fabric. The serving lane's span
// recorder type-asserts it to read cycle/hop counter deltas off
// cycle-timed networks; tuning knobs stay on Engine.
func (m *Machine) Interconnect() Interconnect { return m.eng.net }

// assembleReport fills the cost and error fields of a step report from the
// read- and write-batch results. Only the scalar fields of rres are read
// (its slices were clobbered by the write batch's run); readLastLive is the
// read batch's final live count, saved before the clobber.
func (m *Machine) assembleReport(rep model.StepReport, rres, wres Result, readLastLive int) model.StepReport {
	rep.Time = rres.Time + wres.Time
	rep.Phases = rres.Phases + wres.Phases
	rep.CopyAccesses = rres.CopyAccesses + wres.CopyAccesses
	if ct, ok := m.eng.net.(CycleTimed); ok && ct.TimeInCycles() {
		rep.NetworkCycles = rep.Time
	}
	rep.ModuleContention = rres.MaxModuleLoad
	if wres.MaxModuleLoad > rep.ModuleContention {
		rep.ModuleContention = wres.MaxModuleLoad
	}
	if rres.Stalled && rep.Err == nil {
		rep.Err = &StallError{Batch: "read", Phases: rres.Phases, Live: readLastLive}
	}
	if wres.Stalled && rep.Err == nil {
		rep.Err = &StallError{Batch: "write", Phases: wres.Phases, Live: lastLive(wres)}
	}
	return rep
}

// ReadCell implements model.Backend.
func (m *Machine) ReadCell(a model.Addr) model.Word { return m.store.CommittedValue(a) }

// LoadCells implements model.Backend.
func (m *Machine) LoadCells(base model.Addr, vals []model.Word) {
	for i, v := range vals {
		m.store.LoadCell(base+i, v)
	}
	if m.sink != nil {
		m.sink.RecordLoad(m.lane, base, vals)
	}
}

func lastLive(r Result) int {
	if len(r.LiveTrace) == 0 {
		return 0
	}
	return r.LiveTrace[len(r.LiveTrace)-1]
}
