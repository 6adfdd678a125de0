package core

import (
	"testing"

	"repro/internal/workloads"
)

func TestDualRailHalvesRedundancy(t *testing.T) {
	single := NewMOT2D(64, MOTConfig{})
	dual := NewMOT2D(64, MOTConfig{DualRail: true})
	if dual.Redundancy() >= single.Redundancy() {
		t.Errorf("dual-rail r=%d not below single-rail r=%d",
			dual.Redundancy(), single.Redundancy())
	}
	// The remark says "a factor of 2": 2c−1 with c halved.
	wantC := (single.P.C + 1) / 2
	if dual.P.C != wantC {
		t.Errorf("dual c=%d, want %d", dual.P.C, wantC)
	}
}

func TestDualRailRedundancyConstantAcrossN(t *testing.T) {
	r64 := NewMOT2D(64, MOTConfig{DualRail: true}).Redundancy()
	r256 := NewMOT2D(256, MOTConfig{DualRail: true}).Redundancy()
	if r64 != r256 {
		t.Errorf("dual-rail redundancy varies: %d vs %d", r64, r256)
	}
}

func TestDualRailWorkloads(t *testing.T) {
	for _, w := range []workloads.Workload{
		workloads.TreeSum(16, 9),
		workloads.PrefixSum(16, 9),
		workloads.Permutation(16, 9),
	} {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			b := NewMOT2D(w.Procs, MOTConfig{Mode: w.Mode, DualRail: true})
			if b.MemSize() < w.Cells {
				t.Skip("memory too small")
			}
			if _, err := workloads.RunOn(w, b); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDualRailNameAnnotated(t *testing.T) {
	b := NewMOT2D(16, MOTConfig{DualRail: true})
	if got := b.Name(); got != "2DMOT(n=16, side=64, r=7, dual-rail)" {
		t.Errorf("name = %q", got)
	}
}
