// Package core implements the paper's contribution: deterministic P-RAM
// simulation with constant redundancy on fine-grain distributed-memory
// machines.
//
// Two machines are provided:
//
//   - The DMMPC of Section 2 (Theorem 2): n processors and M = n^(1+ε)
//     memory modules joined by the complete bipartite graph K(n,M). With
//     the Lemma 2 memory map, the Upfal–Wigderson majority-rule protocol
//     runs with a CONSTANT number of copies per variable — redundancy
//     r = O((k−ε)/ε) = O(1) — and O(log n) phases per P-RAM step.
//
//   - The DMBDN of Section 3 (Theorem 3): the same protocol on a feasible
//     bounded-degree machine, a √M × √M two-dimensional mesh of trees with
//     the memory modules at the LEAVES (not at the processors, as in
//     Luccio et al. 1990) and the n processors at tree roots. Requests
//     route down a row tree, up and down a column tree; the √M columns act
//     as n^(1+ε') independent banks, so Lemma 2 again yields constant
//     redundancy, at O(log²n / log log n) time per step.
//
// Both expose model.Backend, so any P-RAM program run by internal/machine
// executes on them unchanged.
package core

import (
	"fmt"

	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/quorum"
)

// Config tunes construction of the paper's machines.
type Config struct {
	// K is the memory-size exponent m = n^K (default 2).
	K float64
	// Eps is the granularity exponent: the DMMPC uses M = n^(1+Eps)
	// modules (default 1, i.e. M = n²).
	Eps float64
	// Mode is the P-RAM conflict convention (default CRCW-Priority).
	Mode model.Mode
	// Seed draws the memory map (default 1).
	Seed int64
	// TwoStage selects the faithful UW'87 two-stage schedule (bounded
	// stage 1, pipelined stage 2) instead of the plain round-robin loop.
	TwoStage bool
	// Engines is the workload-shard count K of the multi-engine
	// deployments (NewDMMPCPool): 0 consults PRAMSIM_ENGINES (absent/off
	// → 1), > 0 uses exactly that many, < 0 uses GOMAXPROCS. Single-
	// machine constructors ignore it. Engines runs K independent
	// simulated programs' steps concurrently against one sharded memory
	// image — bit-for-bit identical to serving them one after another.
	Engines int
	// Workers bounds the pool's executor goroutines (0 → min(Engines,
	// GOMAXPROCS)); see quorum.PoolConfig.Workers.
	Workers int
}

func (c *Config) fill() {
	if c.K == 0 {
		c.K = 2
	}
	if c.Eps == 0 {
		c.Eps = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// DMMPC is the distributed-memory module parallel computer of Section 2
// running the constant-redundancy simulation of Theorem 2.
type DMMPC struct {
	*quorum.Machine
	P memmap.Params
}

// NewDMMPC builds the Theorem 2 machine: M = n^(1+ε) modules, constant
// quorum parameter c from Lemma 2, seeded random memory map.
func NewDMMPC(n int, cfg Config) *DMMPC {
	cfg.fill()
	p := memmap.LemmaTwo(n, cfg.K, cfg.Eps)
	mp := memmap.Generate(p, cfg.Seed)
	st := quorum.NewStore(mp)
	name := fmt.Sprintf("DMMPC(n=%d, M=%d, r=%d)", n, p.M, p.R())
	m := &DMMPC{
		Machine: quorum.NewMachine(name, n, cfg.Mode, st, quorum.NewCompleteBipartite()),
		P:       p,
	}
	if cfg.TwoStage {
		m.SetTwoStage(&quorum.TwoStageConfig{})
	}
	return m
}

// DMMPCPool is the multi-program deployment of the Theorem 2 machine: K
// independent engines, each simulating its own n-processor P-RAM program,
// execute concurrently against ONE sharded memory image. The memory map is
// banded K ways (memmap.GenerateBanded) so that band-local programs touch
// disjoint module sets by construction and every step runs at full
// parallelism; cross-band traffic stays correct and is serialized per
// module-connectivity component by the pool's deterministic merge.
type DMMPCPool struct {
	*quorum.Pool
	P memmap.Params
}

// NewDMMPCPool builds the K-engine DMMPC deployment: Lemma 2 parameters at
// the TOTAL processor count K·n (so the per-band point is Lemma 2 at n
// processors, m/K variables and M/K modules), a banded seeded map, one
// complete-bipartite interconnect per engine. Program k should address the
// variable band [k·m/K, (k+1)·m/K) for full parallelism.
func NewDMMPCPool(n int, cfg Config) *DMMPCPool {
	cfg.fill()
	k := quorum.ResolveEngines(cfg.Engines)
	p := memmap.LemmaTwo(n*k, cfg.K, cfg.Eps)
	mp := memmap.GenerateBanded(p, cfg.Seed, k)
	name := fmt.Sprintf("DMMPCPool(K=%d, n=%d, M=%d, r=%d)", k, n, p.M, p.R())
	var ts *quorum.TwoStageConfig
	if cfg.TwoStage {
		ts = &quorum.TwoStageConfig{}
	}
	return &DMMPCPool{
		Pool: quorum.NewPool(name, quorum.NewStore(mp),
			func(int) quorum.Interconnect { return quorum.NewCompleteBipartite() },
			quorum.PoolConfig{Engines: k, Procs: n, Mode: cfg.Mode, Workers: cfg.Workers, TwoStage: ts}),
		P: p,
	}
}
