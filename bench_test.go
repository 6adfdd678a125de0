// Benchmarks, one family per experiment in DESIGN.md §4 / EXPERIMENTS.md,
// plus micro-benchmarks of the substrates. Run:
//
//	go test -bench=. -benchmem
//
// The E-family benchmarks measure SIMULATOR throughput (wall time per
// simulated P-RAM step); the simulated-time results themselves are
// regenerated by `go run ./cmd/experiments`. Every point the BENCH_*.json
// snapshots track is defined once, in internal/benchsuite: the one-line
// wrappers below run its families under their `-bench` names, and
// cmd/bench runs the same table for the snapshot. The rest (E1, E2,
// E6–E8, ablations, program runs) are measured here only.
package pramsim_test

import (
	"fmt"
	"testing"

	pramsim "repro"
	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gf"
	"repro/internal/hashsim"
	"repro/internal/ida"
	"repro/internal/lowerbound"
	"repro/internal/memmap"
	"repro/internal/mot"
	"repro/internal/quorum"
	"repro/internal/vlsi"
	"repro/internal/workloads"
)

// --- E1: Theorem 1 lower bound -----------------------------------------

func BenchmarkE1LowerBoundAdversary(b *testing.B) {
	p := memmap.LemmaTwo(256, 2, 1)
	mp := memmap.Generate(p, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conc := lowerbound.FindConcentrated(mp, 256)
		if conc.Modules == 0 {
			b.Fatal("adversary degenerate")
		}
	}
}

// --- E2: Lemma 2 expansion audit ----------------------------------------

func BenchmarkE2ExpansionAudit(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := memmap.LemmaTwo(n, 2, 1)
			mp := memmap.Generate(p, 11)
			q := p.N / p.R()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mp.Audit(q, 10, int64(i))
				if !res.Holds {
					b.Fatal("expansion violated")
				}
			}
		})
	}
}

// --- snapshot families (defined in internal/benchsuite) -------------------

func BenchmarkE3DMMPCStep(b *testing.B)        { benchsuite.Run(b, "E3DMMPCStep") }
func BenchmarkE4MPCStep(b *testing.B)          { benchsuite.Run(b, "E4MPCStep") }
func BenchmarkE5MOT2DStep(b *testing.B)        { benchsuite.Run(b, "E5MOT2DStep") }
func BenchmarkE5MOT2DStepSerial(b *testing.B)  { benchsuite.Run(b, "E5MOT2DStepSerial") }
func BenchmarkE5LuccioStep(b *testing.B)       { benchsuite.Run(b, "E5LuccioStep") }
func BenchmarkE12PoolStep(b *testing.B)        { benchsuite.Run(b, "E12PoolStep") }
func BenchmarkE12PoolStepSerial(b *testing.B)  { benchsuite.Run(b, "E12PoolStepSerial") }
func BenchmarkE13LiveStep(b *testing.B)        { benchsuite.Run(b, "E13LiveStep") }
func BenchmarkE13ReplayStep(b *testing.B)      { benchsuite.Run(b, "E13ReplayStep") }
func BenchmarkE14ServeStep(b *testing.B)       { benchsuite.Run(b, "E14ServeStep") }
func BenchmarkE14ServeStepSpans(b *testing.B)  { benchsuite.Run(b, "E14ServeStepSpans") }
func BenchmarkE14ServeStepMOT2D(b *testing.B)  { benchsuite.Run(b, "E14ServeStepMOT2D") }
func BenchmarkE14ServeThroughput(b *testing.B) { benchsuite.Run(b, "E14ServeThroughput") }
func BenchmarkQuorumWriteBatch(b *testing.B)   { benchsuite.Run(b, "QuorumWriteBatch") }
func BenchmarkMOTNetworkPhase(b *testing.B)    { benchsuite.Run(b, "MOTNetworkPhase") }

// --- E6: cross-scheme comparison (hashing both regimes) ------------------

func BenchmarkE6HashedRandomStep(b *testing.B) {
	const n = 256
	hm := hashsim.New(n, hashsim.Config{})
	batch := benchsuite.PermBatch(n, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm.ExecuteStep(batch)
	}
}

func BenchmarkE6HashedAdversarialStep(b *testing.B) {
	const n = 256
	hm := hashsim.New(n, hashsim.Config{})
	batch := hashsim.AdversarialBatch(hm.Hash(), n, hm.MemSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm.ExecuteStep(batch)
	}
}

// --- E7: Schuster IDA memory ---------------------------------------------

func BenchmarkE7IDAReadStep(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			mem := ida.NewMemory(n, ida.Config{MemCells: 4096})
			batch := benchsuite.PermBatch(n, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mem.ExecuteStep(batch)
			}
		})
	}
}

func BenchmarkE7IDADispersal(b *testing.B) {
	dp := ida.NewDispersal(10, 20)
	block := make(gf.Vec, 10)
	for i := range block {
		block[i] = gf.Elem(i * 31 % gf.P)
	}
	idxs := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares := dp.Encode(block)
		sub := make(gf.Vec, 10)
		for j, ix := range idxs {
			sub[j] = shares[ix]
		}
		out := dp.Decode(idxs, sub)
		if out[0] != block[0] {
			b.Fatal("roundtrip failed")
		}
	}
}

// --- E8: VLSI area model ---------------------------------------------------

func BenchmarkE8AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 1 << 12
		m := n * n
		if !vlsi.IsAreaLinear(m, vlsi.AreaOptimalGranule(n), 7, 3) {
			b.Fatal("area claim violated")
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkMemmapGenerate(b *testing.B) {
	p := memmap.LemmaTwo(256, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memmap.Generate(p, int64(i))
	}
}

func BenchmarkGFInterpolation(b *testing.B) {
	xs := make(gf.Vec, 16)
	ys := make(gf.Vec, 16)
	for i := range xs {
		xs[i] = gf.Elem(i + 1)
		ys[i] = gf.Elem((i*i + 7) % gf.P)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gf.SolveVandermonde(xs, ys)
	}
}

// --- end-to-end program benchmarks ----------------------------------------

func BenchmarkProgramPrefixSumIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workloads.PrefixSum(64, 42)
		back := pramsim.NewIdeal(w.Procs, w.Cells, w.Mode)
		if _, err := pramsim.RunWorkload(w, back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgramPrefixSumDMMPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workloads.PrefixSum(64, 42)
		back := pramsim.NewDMMPC(w.Procs, pramsim.DMMPCConfig{Mode: w.Mode})
		if _, err := pramsim.RunWorkload(w, back); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design choices DESIGN.md calls out) --------------

// AblationMOTPolicy: the paper's drop-and-retry collision rule vs pure
// store-and-forward queueing on the same permutation step.
func BenchmarkAblationMOTPolicy(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    mot.Policy
	}{{"drop", mot.DropOnCollision}, {"queue", mot.QueueOnCollision}} {
		b.Run(pol.name, func(b *testing.B) {
			mt := core.NewMOT2D(64, core.MOTConfig{Policy: pol.p})
			batch := benchsuite.PermBatch(64, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mt.ExecuteStep(batch)
			}
		})
	}
}

// AblationDualRail: Theorem 3's closing remark (rows+columns as banks)
// against the plain column-rail machine.
func BenchmarkAblationDualRail(b *testing.B) {
	for _, dr := range []struct {
		name string
		on   bool
	}{{"single", false}, {"dual", true}} {
		b.Run(dr.name, func(b *testing.B) {
			mt := core.NewMOT2D(64, core.MOTConfig{DualRail: dr.on})
			batch := benchsuite.PermBatch(64, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mt.ExecuteStep(batch)
			}
		})
	}
}

// AblationAlgebraicMap: the conclusion's computable-map conjecture — a
// linear-congruential map against the stored random table, same protocol.
func BenchmarkAblationAlgebraicMap(b *testing.B) {
	const n = 256
	p := memmap.LemmaTwo(n, 2, 1)
	for _, mk := range []struct {
		name string
		mp   *memmap.Map
	}{{"random", memmap.Generate(p, 11)}, {"algebraic", memmap.GenerateAlgebraic(p, 11)}} {
		b.Run(mk.name, func(b *testing.B) {
			eng := quorum.NewEngine(quorum.NewStore(mk.mp), quorum.NewCompleteBipartite(), n)
			reqs := make([]quorum.Request, n)
			for i := range reqs {
				reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if eng.ExecuteBatch(reqs).Stalled {
					b.Fatal("stalled")
				}
			}
		})
	}
}

// AblationModuleBandwidth: how per-phase module bandwidth (the stage-2
// pipelining knob) changes the DMMPC's phase count.
func BenchmarkAblationModuleBandwidth(b *testing.B) {
	const n = 256
	for _, bw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("bw=%d", bw), func(b *testing.B) {
			p := memmap.LemmaTwo(n, 2, 1)
			st := quorum.NewStore(memmap.Generate(p, 11))
			eng := quorum.NewEngine(st, &quorum.CompleteBipartite{Bandwidth: bw, PhaseCost: 1}, n)
			reqs := make([]quorum.Request, n)
			for i := range reqs {
				reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if eng.ExecuteBatch(reqs).Stalled {
					b.Fatal("stalled")
				}
			}
		})
	}
}

// AblationScheduler: plain round-robin vs the faithful UW'87 two-stage
// schedule on the same machine and batch.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, ts := range []struct {
		name string
		on   bool
	}{{"roundrobin", false}, {"twostage", true}} {
		b.Run(ts.name, func(b *testing.B) {
			dm := core.NewDMMPC(256, core.Config{TwoStage: ts.on})
			batch := benchsuite.PermBatch(256, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := dm.ExecuteStep(batch); rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// --- experiment harness smoke (kept out of -short runs) --------------------

func TestExperimentHarnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight")
	}
	for _, id := range []string{"e1", "e8"} {
		if _, ok := experiments.Run(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
}
