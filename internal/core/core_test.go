package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ideal"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
	"repro/internal/workloads"
)

func TestDMMPCWorkloadSuite(t *testing.T) {
	for _, w := range workloads.All(32, 9) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			b := NewDMMPC(w.Procs, Config{Mode: w.Mode})
			if b.MemSize() < w.Cells {
				t.Skipf("backend memory %d < %d", b.MemSize(), w.Cells)
			}
			rep, err := workloads.RunOn(w, b)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Phases == 0 {
				t.Error("quorum machine reported zero phases")
			}
		})
	}
}

func TestMOT2DWorkloadSuite(t *testing.T) {
	for _, w := range workloads.All(16, 9) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			b := NewMOT2D(w.Procs, MOTConfig{Mode: w.Mode})
			if b.MemSize() < w.Cells {
				t.Skipf("backend memory %d < %d", b.MemSize(), w.Cells)
			}
			rep, err := workloads.RunOn(w, b)
			if err != nil {
				t.Fatal(err)
			}
			if rep.NetworkCycles == 0 {
				t.Error("2DMOT machine reported zero network cycles")
			}
		})
	}
}

func TestLuccioWorkloadSuite(t *testing.T) {
	for _, w := range workloads.All(16, 9) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			b := NewLuccio(w.Procs, MOTConfig{Mode: w.Mode})
			if b.MemSize() < w.Cells {
				t.Skipf("backend memory %d < %d", b.MemSize(), w.Cells)
			}
			if _, err := workloads.RunOn(w, b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConstantRedundancyHeadline is the paper's main claim rendered as a
// test: DMMPC and 2DMOT redundancy must not grow with n.
func TestConstantRedundancyHeadline(t *testing.T) {
	var dm, mt []int
	for _, n := range []int{64, 128, 256, 512} {
		dm = append(dm, NewDMMPC(n, Config{}).Redundancy())
		mt = append(mt, NewMOT2D(n, MOTConfig{}).Redundancy())
	}
	for i := 1; i < len(dm); i++ {
		if dm[i] != dm[0] {
			t.Errorf("DMMPC redundancy grows with n: %v", dm)
			break
		}
	}
	for i := 1; i < len(mt); i++ {
		if mt[i] != mt[0] {
			t.Errorf("2DMOT redundancy grows with n: %v", mt)
			break
		}
	}
}

// TestBackendEquivalenceDMMPC: random CRCW programs leave identical memory
// on the DMMPC and on the ideal P-RAM — the simulation is semantically
// exact, only slower.
func TestBackendEquivalenceDMMPC(t *testing.T) {
	f := func(seed int64) bool {
		const n, rounds = 16, 6
		dm := NewDMMPC(n, Config{Mode: model.CRCWPriority, Seed: seed})
		m := dm.MemSize()
		id := ideal.New(n, m, model.CRCWPriority)
		rng := rand.New(rand.NewSource(seed))
		for r := 0; r < rounds; r++ {
			batch := model.NewBatch(n)
			for i := 0; i < n; i++ {
				switch rng.Intn(3) {
				case 0:
					batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: rng.Intn(64)}
				case 1:
					batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: rng.Intn(64), Value: model.Word(rng.Intn(1000))}
				}
			}
			dr := dm.ExecuteStep(batch)
			ir := id.ExecuteStep(batch)
			for p, v := range ir.Values {
				if dr.Values[p] != v {
					return false
				}
			}
		}
		for a := 0; a < 64; a++ {
			if dm.ReadCell(a) != id.ReadCell(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMOT2DMatchesIdeal is the mesh-of-trees machine's independent
// oracle: random CRCW-Priority step streams over a small hot address range
// (maximizing conflicts and retries) must return every value the ideal
// P-RAM returns, step by step, and leave the same memory image — plain,
// dual-rail, two-stage and dual-rail + two-stage. The two-stage rows cap
// stage 1 at two phases so that stragglers really drain through stage 2;
// at this size the default budget finishes every step in stage 1.
func TestMOT2DMatchesIdeal(t *testing.T) {
	cases := []struct {
		name     string
		dualRail bool
		stage1   int // stage 1 phase cap of the two-stage schedule; 0 = plain loop
	}{
		{"plain", false, 0},
		{"dualrail", true, 0},
		{"twostage", false, 2},
		{"dualrail-twostage", true, 2},
	}
	const n, steps = 16, 6
	const cells = 2 * n
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				mt := NewMOT2D(n, MOTConfig{Mode: model.CRCWPriority, Seed: seed, DualRail: c.dualRail})
				if c.stage1 > 0 {
					mt.SetTwoStage(&quorum.TwoStageConfig{Stage1Phases: c.stage1})
				}
				id := ideal.New(n, mt.MemSize(), model.CRCWPriority)
				rng := rand.New(rand.NewSource(seed))
				for s := 0; s < steps; s++ {
					batch := model.NewBatch(n)
					for i := 0; i < n; i++ {
						switch rng.Intn(3) {
						case 0:
							batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: rng.Intn(cells)}
						case 1:
							batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: rng.Intn(cells), Value: model.Word(rng.Intn(1000))}
						}
					}
					mr := mt.ExecuteStep(batch)
					if mr.Err != nil {
						t.Fatalf("seed %d step %d: %v", seed, s, mr.Err)
					}
					ir := id.ExecuteStep(batch)
					for p, v := range ir.Values {
						if mr.Values[p] != v {
							t.Fatalf("seed %d step %d proc %d: 2DMOT read %d, ideal %d", seed, s, p, mr.Values[p], v)
						}
					}
				}
				for a := 0; a < mt.MemSize(); a++ {
					if got, want := mt.ReadCell(a), id.ReadCell(a); got != want {
						t.Fatalf("seed %d cell %d: 2DMOT %d, ideal %d", seed, a, got, want)
					}
				}
			}
		})
	}
}

// TestDMMPCPhasesLogarithmic drives a full permutation step at doubling n
// and checks that phases grow like O(log n), not like n.
func TestDMMPCPhasesLogarithmic(t *testing.T) {
	var phases []int
	sizes := []int{64, 128, 256, 512, 1024}
	for _, n := range sizes {
		dm := NewDMMPC(n, Config{})
		batch := model.NewBatch(n)
		perm := rand.New(rand.NewSource(5)).Perm(n)
		for i := 0; i < n; i++ {
			batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: perm[i]}
		}
		rep := dm.ExecuteStep(batch)
		if rep.Err != nil {
			t.Fatalf("n=%d: %v", n, rep.Err)
		}
		phases = append(phases, rep.Phases)
	}
	t.Logf("phases over n=%v: %v", sizes, phases)
	// 16× more processors should cost only a few extra phases (additive
	// log growth), nothing like 16×.
	if phases[len(phases)-1] > 3*phases[0] {
		t.Errorf("phase growth looks super-logarithmic: %v", phases)
	}
}

func TestMOT2DStepTimeReasonable(t *testing.T) {
	n := 64
	mt := NewMOT2D(n, MOTConfig{})
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpWrite, Addr: i, Value: 1}
	}
	rep := mt.ExecuteStep(batch)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Time <= 0 {
		t.Error("no simulated time charged")
	}
	if rep.NetworkCycles != rep.Time {
		t.Errorf("cycles %d != time %d for a network machine", rep.NetworkCycles, rep.Time)
	}
	t.Logf("n=%d write step: %d phases, %d cycles", n, rep.Phases, rep.NetworkCycles)
}

func TestLuccioRedundancyGrowsWhilePaperStaysFlat(t *testing.T) {
	// Parameter-level comparison (no machine construction, so arbitrarily
	// large n is free): Luccio's r = Θ(log m) must grow across n while the
	// paper's 2DMOT r stays exactly flat, overtaking it at scale.
	luSmall := memmap.LemmaOne(64, 2).R()
	luLarge := memmap.LemmaOne(65536, 2).R()
	p3Small, _ := memmap.TheoremThree(64, 2, 2)
	p3Large, _ := memmap.TheoremThree(65536, 2, 2)
	if luLarge <= luSmall {
		t.Errorf("Luccio redundancy did not grow: %d -> %d", luSmall, luLarge)
	}
	if p3Small.R() != p3Large.R() {
		t.Errorf("paper redundancy varies: %d -> %d", p3Small.R(), p3Large.R())
	}
	if luLarge <= p3Large.R() {
		t.Errorf("at n=65536 Luccio r=%d should exceed paper r=%d", luLarge, p3Large.R())
	}
}

func TestConfigDefaults(t *testing.T) {
	dm := NewDMMPC(64, Config{})
	if dm.P.K != 2 || dm.P.Eps != 1 {
		t.Errorf("defaults wrong: %+v", dm.P)
	}
	mt := NewMOT2D(64, MOTConfig{})
	if mt.Side < 64 {
		t.Errorf("side %d below n", mt.Side)
	}
}
