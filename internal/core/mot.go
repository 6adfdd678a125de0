package core

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/quorum"
	"repro/internal/xmath"
)

// MOTConfig tunes construction of the mesh-of-trees machines.
type MOTConfig struct {
	// K is the memory-size exponent m = n^K (default 2).
	K float64
	// Delta sets the physical module count M = n^(1+Delta) of the
	// Theorem 3 machine (default 2, i.e. a grid of side n^1.5). Must be
	// ≥ 1 so the n processors fit on the grid's tree roots.
	Delta float64
	// Mode is the P-RAM conflict convention (default CRCW-Priority).
	Mode model.Mode
	// Seed draws the memory map (default 1).
	Seed int64
	// Policy is the tree-edge contention rule (default DropOnCollision,
	// the paper's routing).
	Policy mot.Policy
	// DualRail enables the simultaneous row+column access of Theorem 3's
	// closing remark: the grid's rows become a second set of banks and the
	// redundancy halves.
	DualRail bool
	// TwoStage selects the faithful UW'87 two-stage schedule with the
	// stage-2 module queues served at O(log n) per phase — the pipelining
	// Luccio et al. (1990) and Theorem 3 use.
	TwoStage bool
	// Engines is the workload-shard count K of the multi-engine
	// deployment (NewMOT2DPool): 0 consults PRAMSIM_ENGINES (absent/off
	// → 1), > 0 uses exactly that many, < 0 uses GOMAXPROCS. Single-
	// machine constructors ignore it.
	Engines int
	// Workers bounds the pool's executor goroutines (0 → min(Engines,
	// GOMAXPROCS)); see quorum.PoolConfig.Workers.
	Workers int
}

func (c *MOTConfig) fill() {
	if c.K == 0 {
		c.K = 2
	}
	if c.Delta == 0 {
		c.Delta = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// MOT2D is the Theorem 3 machine: a √M × √M two-dimensional mesh of trees
// with the memory modules at the leaves and the n processors at the tree
// roots, running the constant-redundancy majority-rule simulation.
type MOT2D struct {
	*quorum.Machine
	P    memmap.Params
	Side int
	Net  *mot.Network
}

// NewMOT2D builds the paper's DMBDN machine (Section 3, Fig. 8). With
// cfg.DualRail it applies the proof's closing remark — rows and columns
// both serve as banks — halving the redundancy.
func NewMOT2D(n int, cfg MOTConfig) *MOT2D {
	cfg.fill()
	var p memmap.Params
	var side int
	if cfg.DualRail {
		p, side = memmap.TheoremThreeDual(n, cfg.K, cfg.Delta)
	} else {
		p, side = memmap.TheoremThree(n, cfg.K, cfg.Delta)
	}
	if n > side {
		panic(fmt.Sprintf("core.NewMOT2D: n=%d exceeds grid side %d", n, side))
	}
	mp := memmap.Generate(p, cfg.Seed)
	nw := mot.NewNetwork(side, mot.ModulesAtLeaves,
		mot.Config{Policy: cfg.Policy, DualRail: cfg.DualRail})
	st := quorum.NewStore(mp)
	name := fmt.Sprintf("2DMOT(n=%d, side=%d, r=%d", n, side, p.R())
	if cfg.DualRail {
		name += ", dual-rail"
	}
	name += ")"
	m := &MOT2D{
		Machine: quorum.NewMachine(name, n, cfg.Mode, st, nw),
		P:       p,
		Side:    side,
		Net:     nw,
	}
	if cfg.TwoStage {
		m.SetTwoStage(&quorum.TwoStageConfig{})
	}
	return m
}

// MOT2DPool is the multi-program deployment of the Theorem 3 machine: K
// independent engines, each simulating its own n-processor P-RAM program,
// execute concurrently against ONE sharded memory image, each routing its
// phases over its OWN √M × √M mesh of trees (interconnects hold per-engine
// scratch and clocks; a distributed deployment would give each serving
// lane its own fabric). The memory map is banded K ways over the grid's
// banks (memmap.GenerateBanded), so band-local programs touch disjoint
// module sets by construction; cross-band traffic stays correct and is
// serialized per module-connectivity component by the pool's deterministic
// merge.
type MOT2DPool struct {
	*quorum.Pool
	P    memmap.Params
	Side int
}

// NewMOT2DPool builds the K-engine 2DMOT deployment: Theorem 3 parameters
// at the TOTAL processor count K·n, a banded seeded map, one leaf-deployed
// mesh network per engine. Program k should address the variable band
// [k·m/K, (k+1)·m/K) for full parallelism.
func NewMOT2DPool(n int, cfg MOTConfig) *MOT2DPool {
	cfg.fill()
	k := quorum.ResolveEngines(cfg.Engines)
	nTotal := n * k
	var p memmap.Params
	var side int
	if cfg.DualRail {
		p, side = memmap.TheoremThreeDual(nTotal, cfg.K, cfg.Delta)
	} else {
		p, side = memmap.TheoremThree(nTotal, cfg.K, cfg.Delta)
	}
	if nTotal > side {
		panic(fmt.Sprintf("core.NewMOT2DPool: K·n=%d exceeds grid side %d", nTotal, side))
	}
	mp := memmap.GenerateBanded(p, cfg.Seed, k)
	name := fmt.Sprintf("2DMOTPool(K=%d, n=%d, side=%d, r=%d)", k, n, side, p.R())
	var ts *quorum.TwoStageConfig
	if cfg.TwoStage {
		ts = &quorum.TwoStageConfig{}
	}
	return &MOT2DPool{
		Pool: quorum.NewPool(name, quorum.NewStore(mp),
			func(int) quorum.Interconnect {
				return mot.NewNetwork(side, mot.ModulesAtLeaves,
					mot.Config{Policy: cfg.Policy, DualRail: cfg.DualRail})
			},
			quorum.PoolConfig{Engines: k, Procs: n, Mode: cfg.Mode, Workers: cfg.Workers, TwoStage: ts}),
		P:    p,
		Side: side,
	}
}

// Luccio is the baseline 2DMOT deployment of Luccio, Pietracaprina & Pucci
// (1990): processors AND memory modules at the coalesced tree roots, the
// mesh acting purely as a switching fabric. Because the module count stays
// M = n (coarse granularity), the memory map must fall back to Lemma 1 and
// the redundancy grows as Θ(log m) — the cost the paper's leaf deployment
// removes.
type Luccio struct {
	*quorum.Machine
	P    memmap.Params
	Side int
	Net  *mot.Network
}

// NewLuccio builds the baseline machine on an n×n grid (n rounded up to a
// power of two).
func NewLuccio(n int, cfg MOTConfig) *Luccio {
	cfg.fill()
	side := xmath.CeilPow2(n)
	p := memmap.LemmaOne(n, cfg.K)
	mp := memmap.Generate(p, cfg.Seed)
	nw := mot.NewNetwork(side, mot.ModulesAtRoots,
		mot.Config{Policy: cfg.Policy})
	st := quorum.NewStore(mp)
	name := fmt.Sprintf("2DMOT-Luccio90(n=%d, side=%d, r=%d)", n, side, p.R())
	m := &Luccio{
		Machine: quorum.NewMachine(name, n, cfg.Mode, st, nw),
		P:       p,
		Side:    side,
		Net:     nw,
	}
	if cfg.TwoStage {
		m.SetTwoStage(&quorum.TwoStageConfig{})
	}
	return m
}
