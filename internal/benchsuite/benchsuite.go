// Package benchsuite is the one table of the repository's benchmark
// points: the E-family machine steps (Theorem 2 DMMPC, UW'87 MPC,
// Theorem 3 2DMOT, Luccio), the K-engine pool, trace replay, the serving
// rounds and the two zero-alloc substrate hot paths. Each Point is defined
// once and run from two places:
//
//   - the root bench_test.go, one `go test -bench` wrapper per family;
//   - cmd/bench, which loops over All with testing.Benchmark and writes
//     the BENCH_<date>.json snapshot its -diff gate compares.
//
// A point's body builds its fixture, runs its untimed warm-up (which sizes
// every arena, so the timed loop sees the steady state alone), times the
// op with b.Loop and reports the warm-up step's simulated counters as the
// SimTime/SimPhases/SimCycles/SimCopies metrics. b.Loop calls the body
// once per measurement, so a fixture is built once, not once per b.N.
package benchsuite

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/mpc"
	"repro/internal/quorum"
	"repro/internal/replay"
	"repro/internal/serve"
)

// Metric units of the warm-up step's simulated counters. A point without
// a step structure (serving rounds, substrate micro-benchmarks) reports
// none; a counter the step leaves at zero is not reported either.
const (
	SimTime   = "simtime/op"
	SimPhases = "phases/op"
	SimCycles = "cycles/op"
	SimCopies = "copies/op"
)

// Point is one benchmark point. Name is "Family/sub"; Run is the whole
// benchmark body.
type Point struct {
	Name string
	Run  func(b *testing.B)
}

// All returns every benchmark point, grouped by family.
func All() []Point {
	var ps []Point
	add := func(run func(*testing.B), format string, args ...any) {
		ps = append(ps, Point{Name: fmt.Sprintf(format, args...), Run: run})
	}
	for _, n := range []int{64, 256, 1024} {
		add(stepPoint(n, func(*testing.B) model.Backend { return core.NewDMMPC(n, core.Config{}) }), "E3DMMPCStep/n=%d", n)
	}
	for _, n := range []int{64, 256, 1024} {
		add(stepPoint(n, func(*testing.B) model.Backend { return mpc.New(n, mpc.Config{}) }), "E4MPCStep/n=%d", n)
	}
	for _, n := range []int{16, 64, 256} {
		add(stepPoint(n, func(*testing.B) model.Backend { return core.NewMOT2D(n, core.MOTConfig{}) }), "E5MOT2DStep/n=%d", n)
	}
	// E5 at production sizes. n ≥ 1024 rides K=1.5 and a δ that keeps the
	// 16384-side grid inside the 32-bit dense edge index range.
	for _, c := range []struct {
		n   int
		cfg core.MOTConfig
	}{{256, core.MOTConfig{}}, {1024, core.MOTConfig{K: 1.5, Delta: 1.8}}, {4096, core.MOTConfig{K: 1.5, Delta: 1.333}}} {
		add(stepPoint(c.n, func(*testing.B) model.Backend { return core.NewMOT2D(c.n, c.cfg) }), "E5MOT2DStepSerial/n=%d", c.n)
	}
	for _, n := range []int{16, 64, 256} {
		add(stepPoint(n, func(*testing.B) model.Backend { return core.NewLuccio(n, core.MOTConfig{}) }), "E5LuccioStep/n=%d", n)
	}
	// E12: the same aggregate workload (nTotal processors, one band-local
	// permutation read each) served as K programs by K concurrent engines.
	// Execution is bit-for-bit identical at every K and worker count (pool
	// differential tests), so the sweep isolates serving throughput. The
	// Serial point runs the K=4 pool with its executor on the caller.
	for _, k := range []int{1, 4} {
		add(poolPoint(256, k, 0), "E12PoolStep/n=256/K=%d", k)
	}
	for _, k := range []int{1, 2, 4, 8} {
		add(poolPoint(1024, k, 0), "E12PoolStep/n=1024/K=%d", k)
	}
	add(poolPoint(1024, 4, 1), "E12PoolStepSerial/n=1024/K=4")
	// E13: an E5-shape permutation-read trace replayed straight into the
	// engine (frame decode + ExecuteDedupStep, rewinding at end of file),
	// against the same machine's live ExecuteStep front end.
	for _, c := range []replayShape{{256, 0, 0, 4}, {1024, 1.5, 1.8, 4}, {4096, 1.5, 1.333, 3}} {
		if c.n >= 1024 {
			add(stepPoint(c.n, c.live), "E13LiveStep/n=%d", c.n)
		}
		add(c.replayPoint, "E13ReplayStep/n=%d", c.n)
	}
	// E14: one serving round of the internal/serve front end — admission,
	// band-aware scheduling, generator fill, pool round, accounting. The
	// T=2/K=2 shape recurs with a tiny span ring (depth 64, so every round
	// overwrites) and with per-shard 2DMOT meshes, so each variant has a
	// same-shape sibling. E14ServeThroughput sweeps one 8-tenant mix over
	// K engines; per-tenant results are bit-for-bit identical at every K
	// (serve differential tests).
	add(servePoint(serveShape{tenants: 2, procs: 32, engines: 2}), "E14ServeStep/T=2/K=2")
	add(servePoint(serveShape{tenants: 4, procs: 64, engines: 4}), "E14ServeStep/T=4/K=4")
	add(servePoint(serveShape{tenants: 2, procs: 32, engines: 2, spanDepth: 64}), "E14ServeStepSpans/T=2/K=2")
	add(servePoint(serveShape{tenants: 2, procs: 64, engines: 2, ic: serve.MOT2D}), "E14ServeStepMOT2D/T=2/K=2")
	for _, k := range []int{1, 2, 4, 8} {
		add(servePoint(serveShape{tenants: 8, procs: 128, engines: k}), "E14ServeThroughput/n=1024/K=%d", k)
	}
	// The two zero-alloc substrate hot paths.
	add(quorumWriteBatch, "QuorumWriteBatch/n=256")
	add(motNetworkPhase, "MOTNetworkPhase/side=1024")
	return ps
}

// Run runs every point of family as a sub-benchmark of b, so a
// `-bench Family` pattern selects exactly the family's points.
func Run(b *testing.B, family string) {
	for _, p := range All() {
		if fam, sub, _ := strings.Cut(p.Name, "/"); fam == family {
			b.Run(sub, p.Run)
		}
	}
}

// loop times op in steady state and reports warm, the warm-up step's
// simulated counters.
func loop(b *testing.B, warm model.StepReport, op func() error) {
	if warm.Err != nil {
		b.Fatal(warm.Err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range []struct {
		v    int64
		unit string
	}{{warm.Time, SimTime}, {int64(warm.Phases), SimPhases}, {warm.NetworkCycles, SimCycles}, {warm.CopyAccesses, SimCopies}} {
		if m.v != 0 {
			b.ReportMetric(float64(m.v), m.unit)
		}
	}
}

// PermBatch builds the canonical full permutation read step: processor i
// reads cell perm[i] of a seeded permutation of 0..n-1.
func PermBatch(n int, seed int64) model.Batch {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	batch := model.NewBatch(n)
	for i := 0; i < n; i++ {
		batch[i] = model.Request{Proc: i, Op: model.OpRead, Addr: perm[i]}
	}
	return batch
}

// stepPoint times one machine's ExecuteStep on a full permutation read.
func stepPoint(n int, build func(*testing.B) model.Backend) func(*testing.B) {
	return func(b *testing.B) {
		back := build(b)
		batch := PermBatch(n, 5)
		loop(b, back.ExecuteStep(batch), func() error { return back.ExecuteStep(batch).Err })
	}
}

// poolPoint times one DMMPC pool round: K shard steps plus the
// deterministic report merge, each shard reading a permutation of its own
// variable band — K independent programs over disjoint module sets.
func poolPoint(nTotal, k, workers int) func(*testing.B) {
	return func(b *testing.B) {
		dp := core.NewDMMPCPool(nTotal/k, core.Config{Engines: k, Workers: workers})
		defer dp.Close()
		n, mem := dp.ShardProcs(), dp.Store().Map().Vars()
		rng := rand.New(rand.NewSource(5))
		batches := make([]model.Batch, k)
		for sh := range batches {
			lo, _ := memmap.BandRange(sh, mem, k)
			perm := rng.Perm(n)
			batches[sh] = model.NewBatch(n)
			for i := range perm {
				batches[sh][i] = model.Request{Proc: i, Op: model.OpRead, Addr: lo + perm[i]}
			}
		}
		warm, _ := dp.ExecuteSteps(batches)
		loop(b, warm, func() error {
			agg, _ := dp.ExecuteSteps(batches)
			return agg.Err
		})
	}
}

// replayShape is one E13 point: an n-processor 2DMOT (kexp, gran 0 → the
// defaults) whose trace holds steps permutation reads.
type replayShape struct {
	n          int
	kexp, gran float64
	steps      int
}

func (c replayShape) build(b *testing.B) *replay.Built {
	cfg := replay.Config{Kind: replay.KindMOT2D, Lanes: 1, Procs: c.n,
		Mode: model.CRCWPriority, KExp: c.kexp, Gran: c.gran}
	built, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	return built
}

func (c replayShape) live(b *testing.B) model.Backend { return c.build(b).Machine }

// replayPoint records the trace in memory, then times one replayed step.
// The replayed step is the live step's simulation bit-for-bit (replay
// differential tests), so it reports the recorded step's counters.
func (c replayShape) replayPoint(b *testing.B) {
	built := c.build(b)
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, built)
	if err != nil {
		b.Fatal(err)
	}
	batch := PermBatch(c.n, 5)
	var rep model.StepReport
	for s := 0; s < c.steps; s++ {
		if rep = built.Machine.ExecuteStep(batch); rep.Err != nil {
			b.Fatal(rep.Err)
		}
	}
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	rp, err := replay.Open(rd)
	if err != nil {
		b.Fatal(err)
	}
	step := func() error {
		for {
			executed, err := rp.Step()
			if err != nil || executed {
				return err
			}
			rd.Seek(0, io.SeekStart)
			if err := rp.Reset(rd); err != nil {
				return err
			}
		}
	}
	for i := 0; i < c.steps+1; i++ { // warm the arenas across a rewind
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	loop(b, rep, step)
}

// serveShape is one E14 point: tenants closed-loop uniform tenants of
// procs processors, one band each, on engines pool engines.
type serveShape struct {
	tenants, procs, engines int
	spanDepth               int // 0 → the server default
	ic                      serve.Interconnect
}

// servePoint times one steady-state serving round: min(T, K) tenant steps.
func servePoint(sh serveShape) func(*testing.B) {
	return func(b *testing.B) {
		cfg := serve.Config{Bands: sh.tenants, Engines: sh.engines, Seed: 7,
			SpanDepth: sh.spanDepth, Interconnect: sh.ic}
		for i := 0; i < sh.tenants; i++ {
			cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{
				Name: fmt.Sprintf("g%d", i), Band: i, Procs: sh.procs,
				Arrival: serve.Arrival{Window: 2},
				Source:  serve.NewPatternSource(replay.Uniform, sh.procs, 0, int64(100+i)),
			})
		}
		s, err := serve.NewServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 16; i++ { // warm the arenas (uniform draws vary the batch shape)
			s.Round()
		}
		if sh.spanDepth > 0 && s.Spans().Dropped() == 0 {
			b.Fatal("span ring never wrapped: the timed rounds would miss the overwrite path")
		}
		want := min(sh.tenants, sh.engines)
		round := func() error {
			if s.Round() != want {
				return errors.New("serving round under-scheduled")
			}
			return nil
		}
		loop(b, model.StepReport{}, round)
	}
}

func quorumWriteBatch(b *testing.B) {
	const n = 256
	st := quorum.NewStore(memmap.Generate(memmap.LemmaTwo(n, 2, 1), 11))
	eng := quorum.NewEngine(st, quorum.NewCompleteBipartite(), n)
	reqs := make([]quorum.Request, n)
	for i := range reqs {
		reqs[i] = quorum.Request{Proc: i, Var: i, Write: true, Value: 1}
	}
	write := func() error {
		if eng.ExecuteBatch(reqs).Stalled {
			return errors.New("write batch stalled")
		}
		return nil
	}
	if err := write(); err != nil {
		b.Fatal(err)
	}
	loop(b, model.StepReport{}, write)
}

func motNetworkPhase(b *testing.B) {
	nw := mot.NewNetwork(1024, mot.ModulesAtLeaves, mot.Config{})
	attempts := make([]quorum.Attempt, 256)
	for i := range attempts {
		attempts[i] = quorum.Attempt{Proc: i, Module: (i * 37) % 1024, Var: i, Copy: 0}
	}
	route := func() error {
		nw.RoutePhase(attempts)
		return nil
	}
	route()
	loop(b, model.StepReport{}, route)
}
