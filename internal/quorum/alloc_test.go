package quorum

import (
	"math/bits"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

// allocSetup builds an engine plus canonical read and write batches.
func allocSetup(n int) (*Engine, []Request, []Request) {
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 11))
	eng := NewEngine(st, NewCompleteBipartite(), n)
	writes := make([]Request, n)
	reads := make([]Request, n)
	for i := range writes {
		writes[i] = Request{Proc: i, Var: i, Write: true, Value: model.Word(i)}
		reads[i] = Request{Proc: i, Var: i}
	}
	return eng, reads, writes
}

// TestExecuteBatchZeroAllocs locks the engine's steady-state zero-allocation
// invariant: once the scratch arena has grown to the batch shape, neither
// read nor write batches touch the heap.
func TestExecuteBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	eng, reads, writes := allocSetup(256)
	for i := 0; i < 3; i++ { // grow the arena
		eng.ExecuteBatch(writes)
		eng.ExecuteBatch(reads)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if eng.ExecuteBatch(writes).Stalled {
			t.Fatal("stalled")
		}
	}); avg != 0 {
		t.Errorf("ExecuteBatch(writes) allocates %.1f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if eng.ExecuteBatch(reads).Stalled {
			t.Fatal("stalled")
		}
	}); avg != 0 {
		t.Errorf("ExecuteBatch(reads) allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestExecuteBatchTwoStageZeroAllocs extends the invariant to the two-stage
// schedule, which exercises the arena's secondary result buffers.
func TestExecuteBatchTwoStageZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	eng, reads, writes := allocSetup(256)
	cfg := TwoStageConfig{}
	for i := 0; i < 3; i++ {
		eng.ExecuteBatchTwoStage(writes, cfg)
		eng.ExecuteBatchTwoStage(reads, cfg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if r := eng.ExecuteBatchTwoStage(writes, cfg); r.Stalled {
			t.Fatal("stalled")
		}
	}); avg != 0 {
		t.Errorf("ExecuteBatchTwoStage allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestExecuteStepZeroAllocs locks the whole backend step pipeline — conflict
// check, sorted dedup, engine, interconnect, report — at zero steady-state
// allocations under CRCW-Priority.
func TestExecuteStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const n = 256
	p := memmap.LemmaTwo(n, 2, 1)
	st := NewStore(memmap.Generate(p, 11))
	m := NewMachine("alloc-test", n, model.CRCWPriority, st, NewCompleteBipartite())
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: (i * 7) % n}
		} else {
			batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: (i * 3) % n, Value: model.Word(i)}
		}
	}
	for i := 0; i < 3; i++ {
		m.ExecuteStep(batch)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if rep := m.ExecuteStep(batch); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}); avg != 0 {
		t.Errorf("ExecuteStep allocates %.1f/op in steady state, want 0", avg)
	}
}

// TestCompleteBipartiteScratchSteadyState pins the per-module table sizing.
// A direct caller feeding a rising module-id ramp regrows the table only
// O(log M) times — not once per new maximum — and then routes phases with
// zero allocations; under an Engine the first phase sizes the table to the
// store's module count.
func TestCompleteBipartiteScratchSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation invariants are measured without the race detector")
	}
	const top = 1 << 16
	cb := NewCompleteBipartite()
	attempts := make([]Attempt, 8)
	route := func(hi int) {
		for i := range attempts {
			attempts[i] = Attempt{Proc: i, Module: hi * (i + 1) / len(attempts)}
		}
		cb.RoutePhase(attempts)
	}
	regrowths, size := 0, len(cb.stamp)
	for hi := 0; hi < top; hi += 97 {
		route(hi)
		if len(cb.stamp) != size {
			regrowths, size = regrowths+1, len(cb.stamp)
		}
	}
	if limit := bits.Len(top) + 1; regrowths > limit {
		t.Errorf("module ramp to %d regrew the table %d times, want ≤ %d", top, regrowths, limit)
	}
	if avg := testing.AllocsPerRun(20, func() {
		for hi := 0; hi < top; hi += 4099 {
			route(hi)
		}
	}); avg != 0 {
		t.Errorf("RoutePhase allocates %.1f/op after the module ramp, want 0", avg)
	}

	st := NewStore(memmap.Generate(memmap.LemmaTwo(64, 2, 1), 11))
	sized := NewCompleteBipartite()
	NewEngine(st, sized, 64)
	sized.RoutePhase([]Attempt{{Proc: 0, Module: 0}})
	if got, want := len(sized.stamp), st.Map().Modules(); got != want {
		t.Errorf("an engine's first phase sized the module table to %d, want the store's %d modules", got, want)
	}
}
