package mot

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quorum"
)

// Property: RoutePhase always terminates, grants at least one packet when
// any were injected, and never grants a dropped packet's attempt twice.
func TestRoutePhaseAlwaysProgresses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := 1 << (3 + rng.Intn(3)) // 8..32
		nw := NewNetwork(side, ModulesAtLeaves, Config{})
		k := 1 + rng.Intn(side)
		attempts := make([]quorum.Attempt, 0, k)
		used := map[int]bool{}
		for len(attempts) < k {
			p := rng.Intn(side)
			if used[p] {
				continue
			}
			used[p] = true
			attempts = append(attempts, quorum.Attempt{
				Proc:   p,
				Module: rng.Intn(side),
				Var:    rng.Intn(1024),
				Copy:   rng.Intn(8),
			})
		}
		granted, cycles, _ := nw.RoutePhase(attempts)
		if cycles <= 0 {
			return false
		}
		any := false
		for _, g := range granted {
			any = any || g
		}
		return any // at least the highest-priority packet always survives
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (queue policy): everything is granted, regardless of pattern.
func TestQueuePolicyAlwaysGrantsAll(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := 16
		nw := NewNetwork(side, ModulesAtLeaves, Config{Policy: QueueOnCollision})
		k := 1 + rng.Intn(side)
		attempts := make([]quorum.Attempt, 0, k)
		used := map[int]bool{}
		for len(attempts) < k {
			p := rng.Intn(side)
			if used[p] {
				continue
			}
			used[p] = true
			attempts = append(attempts, quorum.Attempt{
				Proc: p, Module: rng.Intn(side), Var: rng.Intn(64), Copy: rng.Intn(4),
			})
		}
		granted, _, _ := nw.RoutePhase(attempts)
		for _, g := range granted {
			if !g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzRoutePhase is the differential harness as a fuzz target: a fuzzed
// byte string drives topology choice and per-phase attempt streams through
// the retired AoS reference router (reference_test.go) and the SoA
// network, which must stay bit-for-bit identical (grants, cycles, loads,
// stats) on every input the fuzzer invents. A capacity bump mid-stream
// exercises SetBandwidth on both.
func FuzzRoutePhase(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x03, 0x41, 0x7f, 0x10, 0xee})
	f.Add(int64(42), uint8(3), []byte{0xff, 0x00, 0xa5, 0x5a})
	f.Add(int64(7), uint8(13), []byte{0x01})
	f.Add(int64(19), uint8(21), []byte{0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, stream []byte) {
		side := 8 << (shape % 3) // 8..32
		pl := ModulesAtLeaves
		if shape&4 != 0 {
			pl = ModulesAtRoots
		}
		pol := DropOnCollision
		if shape&8 != 0 {
			pol = QueueOnCollision
		}
		dualRail := pl == ModulesAtLeaves && shape&16 != 0
		cfg := Config{Policy: pol, DualRail: dualRail}
		ref := newRefNetwork(side, pl, cfg)
		ser := NewNetwork(side, pl, cfg)
		rng := rand.New(rand.NewSource(seed))
		banks := side
		if dualRail {
			banks = 2 * side
		}
		// Each stream byte seeds one attempt; phase boundaries every
		// `side` attempts keep phases non-trivial.
		var attempts []quorum.Attempt
		phases := 0
		flush := func() {
			if len(attempts) == 0 {
				return
			}
			if phases == 2 {
				ref.SetBandwidth(2)
				ser.SetBandwidth(2)
			}
			phases++
			gr, cr, lr := ref.RoutePhase(attempts)
			gs, cs, ls := ser.RoutePhase(attempts)
			if cr != cs || lr != ls {
				t.Fatalf("reference (cycles=%d load=%d) != serial (%d/%d)", cr, lr, cs, ls)
			}
			for i := range gs {
				if gr[i] != gs[i] {
					t.Fatalf("grant[%d]: reference=%v serial=%v", i, gr[i], gs[i])
				}
			}
			attempts = attempts[:0]
		}
		for _, b := range stream {
			attempts = append(attempts, quorum.Attempt{
				Proc:   int(b) % side,
				Module: (int(b) * 7 % banks) ^ rng.Intn(banks),
				Var:    rng.Intn(512),
				Copy:   int(b >> 5),
				Write:  b&1 == 1,
			})
			if len(attempts) >= side {
				flush()
			}
		}
		flush()
		if ref.Stats() != ser.Stats() {
			t.Fatalf("stats diverged:\n reference %+v\n serial    %+v", ref.Stats(), ser.Stats())
		}
	})
}

// TestStatsMonotone: cumulative counters never decrease across phases.
func TestStatsMonotone(t *testing.T) {
	nw := NewNetwork(16, ModulesAtLeaves, Config{})
	rng := rand.New(rand.NewSource(4))
	var prev Stats
	for round := 0; round < 10; round++ {
		attempts := []quorum.Attempt{
			{Proc: rng.Intn(16), Module: rng.Intn(16), Var: rng.Intn(32)},
		}
		nw.RoutePhase(attempts)
		cur := nw.Stats()
		if cur.Cycles < prev.Cycles || cur.Hops < prev.Hops || cur.Served < prev.Served {
			t.Fatalf("stats regressed: %+v -> %+v", prev, cur)
		}
		prev = cur
	}
}

// TestBandwidthSetterAffectsServiceRate: two packets reaching the SAME
// module simultaneously via the two independent rails (column rail and
// row rail) are serialized at capacity 1 but served together at capacity
// 2. (Same-rail packets serialize on shared tree edges before the module,
// so dual rail is the only way two packets arrive in the same cycle.)
func TestBandwidthSetterAffectsServiceRate(t *testing.T) {
	const side = 16
	mk := func(capacity int) int64 {
		nw := NewNetwork(side, ModulesAtLeaves, Config{
			Policy:   QueueOnCollision,
			DualRail: true,
			// The free coordinate: row 3 for the col-rail packet (var 1),
			// column 5 for the row-rail packet (var 2) — both end at
			// module (3,5) via fully disjoint trees.
			RowOf: func(v, cp int) int {
				if v == 1 {
					return 3
				}
				return 5
			},
		})
		nw.SetBandwidth(capacity)
		attempts := []quorum.Attempt{
			// Column rail: bank/col 5, row 3 → module (3,5) via CT(5).
			{Proc: 1, Module: 5, Var: 1, Copy: 0},
			// Row rail: row bank 3, col 5 → module (3,5) via CT(3)+RT(3).
			{Proc: 2, Module: side + 3, Var: 2, Copy: 0},
		}
		granted, cycles, load := nw.RoutePhase(attempts)
		if !granted[0] || !granted[1] {
			t.Fatal("queue policy must grant both")
		}
		if load != 2 {
			t.Fatalf("expected both packets on one module, load=%d", load)
		}
		return cycles
	}
	if mk(2) >= mk(1) {
		t.Error("higher module bandwidth did not reduce cycles")
	}
}
