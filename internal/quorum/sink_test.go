package quorum

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/memmap"
	"repro/internal/model"
)

// captureSink copies every recorded step (the slices alias machine
// scratch, so a sink must deep-copy what it keeps). A pool's shard machines
// call RecordStep concurrently for different lanes, so appends are locked.
type captureSink struct {
	mu       sync.Mutex
	lanes    []int
	steps    []DedupStep
	reports  []string
	loads    int
	barriers int
}

func (c *captureSink) RecordStep(lane int, reads []Request, readerOff, readerProcs []int32,
	writes []Request, rep model.StepReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lanes = append(c.lanes, lane)
	c.steps = append(c.steps, DedupStep{
		Reads:       append([]Request(nil), reads...),
		ReaderOff:   append([]int32(nil), readerOff...),
		ReaderProcs: append([]int32(nil), readerProcs...),
		Writes:      append([]Request(nil), writes...),
	})
	c.reports = append(c.reports, reportString(&rep))
}

func (c *captureSink) RecordLoad(lane int, base model.Addr, vals []model.Word) { c.loads++ }

func (c *captureSink) StepBarrier() { c.barriers++ }

func reportString(rep *model.StepReport) string {
	return fmt.Sprintf("t=%d ph=%d cyc=%d cp=%d cont=%d err=%v vals=%v",
		rep.Time, rep.Phases, rep.NetworkCycles, rep.CopyAccesses,
		rep.ModuleContention, rep.Err != nil, rep.Values)
}

// mixedBatch draws a random step with shared addresses (multi-reader
// fan-out) and concurrent writes.
func mixedBatch(rng *rand.Rand, n, mem int) model.Batch {
	b := model.NewBatch(n)
	for i := 0; i < n; i++ {
		addr := rng.Intn(mem / 4) // dense address reuse
		switch rng.Intn(3) {
		case 0:
			b[i] = model.Request{Proc: i, Op: model.OpRead, Addr: addr}
		case 1:
			b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: addr, Value: model.Word(rng.Int63n(1 << 16))}
		}
	}
	return b
}

// TestExecuteDedupStepMatchesExecuteStep: feeding a captured post-dedup
// step back through ExecuteDedupStep on an identically constructed machine
// reproduces the original StepReport bit-for-bit (Err excepted — the dedup
// layer's conflict check is not re-run) and the same store image.
func TestExecuteDedupStepMatchesExecuteStep(t *testing.T) {
	const n, steps = 32, 10
	p := memmap.LemmaTwo(n, 2, 1)
	mp := memmap.Generate(p, 17)
	live := NewMachine("live", n, model.CRCWPriority, NewStore(mp), NewCompleteBipartite())
	rep := NewMachine("replay", n, model.CRCWPriority, NewStore(mp), NewCompleteBipartite())

	sink := &captureSink{}
	live.SetStepSink(sink, 3)
	rng := rand.New(rand.NewSource(5))
	var liveReports []string
	for s := 0; s < steps; s++ {
		r := live.ExecuteStep(mixedBatch(rng, n, mp.Vars()))
		liveReports = append(liveReports, reportString(&r))
	}
	live.SetStepSink(nil, 0)

	if len(sink.steps) != steps {
		t.Fatalf("sink captured %d steps, want %d", len(sink.steps), steps)
	}
	for _, lane := range sink.lanes {
		if lane != 3 {
			t.Fatalf("sink saw lane %d, want 3", lane)
		}
	}
	for s, ds := range sink.steps {
		r := rep.ExecuteDedupStep(ds.Reads, ds.ReaderOff, ds.ReaderProcs, ds.Writes)
		got := reportString(&r)
		if got != liveReports[s] {
			t.Errorf("step %d diverged:\n live  %s\n dedup %s", s, liveReports[s], got)
		}
		if sink.reports[s] != liveReports[s] {
			// The sink's recorded report must equal the returned one too.
			t.Errorf("step %d: sink recorded %s, ExecuteStep returned %s", s, sink.reports[s], liveReports[s])
		}
	}
	if lf, rf := live.Store().Fingerprint(), rep.Store().Fingerprint(); lf != rf {
		t.Errorf("store fingerprints diverged: live %x, dedup %x", lf, rf)
	}
}

// TestDedupStepDoesNotRecord: replay entry points must not re-invoke the
// sink.
func TestDedupStepDoesNotRecord(t *testing.T) {
	const n = 16
	p := memmap.LemmaTwo(n, 2, 1)
	mp := memmap.Generate(p, 9)
	m := NewMachine("m", n, model.CRCWPriority, NewStore(mp), NewCompleteBipartite())
	sink := &captureSink{}
	m.SetStepSink(sink, 0)
	m.ExecuteDedupStep([]Request{{Proc: 0, Var: 1}}, nil, nil, []Request{{Proc: 1, Var: 2, Write: true, Value: 7}})
	if len(sink.steps) != 0 {
		t.Fatalf("ExecuteDedupStep recorded %d steps through the sink", len(sink.steps))
	}
}

// TestPoolSetStepSinkLanes: the pool wires shard k to lane k and fires the
// barrier once per round.
func TestPoolSetStepSinkLanes(t *testing.T) {
	const k, nPer = 4, 8
	p := memmap.LemmaTwo(k*nPer, 2, 1)
	mp := memmap.GenerateBanded(p, 7, k)
	pl := NewPool("sink", NewStore(mp), func(int) Interconnect { return NewCompleteBipartite() },
		PoolConfig{Engines: k, Procs: nPer, Mode: model.CRCWPriority})
	sink := &captureSink{}
	pl.SetStepSink(sink)

	batches := make([]model.Batch, k)
	for sh := range batches {
		lo, _ := memmap.BandRange(sh, mp.Vars(), k)
		b := model.NewBatch(nPer)
		for i := 0; i < nPer; i++ {
			b[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: lo + i, Value: model.Word(sh*100 + i)}
		}
		batches[sh] = b
	}
	const rounds = 3
	for r := 0; r < rounds; r++ {
		pl.ExecuteSteps(batches)
	}
	if sink.barriers != rounds {
		t.Errorf("saw %d barriers, want %d", sink.barriers, rounds)
	}
	if len(sink.steps) != rounds*k {
		t.Fatalf("captured %d steps, want %d", len(sink.steps), rounds*k)
	}
	// Every round records each lane exactly once (order within a round is
	// execution order; the recorder serializes rounds at the barrier).
	for r := 0; r < rounds; r++ {
		seen := make(map[int]bool)
		for _, lane := range sink.lanes[r*k : (r+1)*k] {
			if seen[lane] {
				t.Fatalf("round %d recorded lane %d twice", r, lane)
			}
			seen[lane] = true
		}
	}
	// Replaying the captured rounds through ExecuteDedupSteps on a fresh
	// pool reproduces the store image.
	pl2 := NewPool("sink2", NewStore(mp), func(int) Interconnect { return NewCompleteBipartite() },
		PoolConfig{Engines: k, Procs: nPer, Mode: model.CRCWPriority})
	for r := 0; r < rounds; r++ {
		round := make([]DedupStep, k)
		for i, lane := range sink.lanes[r*k : (r+1)*k] {
			round[lane] = sink.steps[r*k+i]
		}
		pl2.ExecuteDedupSteps(round)
	}
	if a, b := pl.Store().Fingerprint(), pl2.Store().Fingerprint(); a != b {
		t.Errorf("pool replay fingerprint %x, live %x", b, a)
	}
}
