package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/model"
	"repro/internal/mot"
	"repro/internal/prom"
	"repro/internal/replay"
	"repro/internal/serve"
)

// scrapeEvery is how often a scrape of the metrics exposition is due;
// spansEvery how often http-open dumps /debug/spans.
const (
	scrapeEvery = 250 * time.Millisecond
	spansEvery  = 2 * time.Second
)

// mixProcs is each serve-mix tenant's P-RAM size; mixTraceSteps the length
// of the trace the trace-backed tenant loops over.
const (
	mixProcs      = 256
	mixTraceSteps = 512
)

// motProcs is each serve-mot2d tenant's size: two tenants of 1024
// processors give production-size meshes (side 16384).
const motProcs = 1024

// offline describes a closed-loop, virtual-time workload: Server.Round is
// called back to back for the measured window, with no HTTP.
type offline struct {
	window int // closed-loop Arrival.Window of every tenant
	// config builds the deployment for a seed. It may record inputs first
	// (the serve-mix trace); it returns the time that took in ns.
	config func(h *harness) (serve.Config, int64, error)
	// verify checks the workload's recorded inputs, if any.
	verify func(h *harness, rep *report) error
}

func runServeMix(h *harness) (*report, error) {
	var trace []byte
	return runOffline(h, offline{
		window: 2,
		config: func(h *harness) (serve.Config, int64, error) {
			start := h.ns()
			var err error
			if trace, err = recordTrace(h.seed, mixProcs, mixTraceSteps); err != nil {
				return serve.Config{}, 0, err
			}
			end := h.ns()
			h.tr.add(0, 0, 0, spRecord, start, end)
			w := serve.Arrival{Window: 2}
			return serve.Config{
				Tenants: []serve.TenantConfig{
					{Name: "trace", Band: 0, Procs: mixProcs, Arrival: w,
						Source: serve.NewTraceSource(trace, 0, true)},
					{Name: "hotspot", Band: 1, Procs: mixProcs, Arrival: w,
						Source: serve.NewPatternSource(replay.Hotspot, mixProcs, 0, derive(h.seed, 2))},
					{Name: "broadcast", Band: 2, Procs: mixProcs, Arrival: w,
						Source: serve.NewPatternSource(replay.Broadcast, mixProcs, 0, derive(h.seed, 3))},
					{Name: "global", Band: 3, Procs: mixProcs, Arrival: w,
						Source: serve.NewGlobalPatternSource(replay.Uniform, mixProcs, 0, derive(h.seed, 4))},
				},
				Engines: engines,
				Seed:    derive(h.seed, 0),
			}, end - start, nil
		},
		verify: func(h *harness, rep *report) error {
			start := h.ns()
			rp, err := replay.Open(bytes.NewReader(trace))
			if err != nil {
				return fmt.Errorf("opening recorded trace: %w", err)
			}
			rp.Verify = true
			sum, err := rp.Run()
			if err != nil {
				return fmt.Errorf("replaying recorded trace: %w", err)
			}
			end := h.ns()
			h.tr.add(0, 0, 0, spVerify, start, end)
			rep.layer["replay.verify_s"] = float64(end-start) / 1e9
			rep.check(sum.VerifyOK() && sum.Steps == mixTraceSteps,
				"recorded trace does not replay: %d steps, %d mismatches %v", sum.Steps, sum.Mismatches, sum.MismatchDetail)
			return nil
		},
	})
}

func runServeMOT2D(h *harness) (*report, error) {
	return runOffline(h, offline{
		window: 1,
		config: func(h *harness) (serve.Config, int64, error) {
			w := serve.Arrival{Window: 1}
			return serve.Config{
				Tenants: []serve.TenantConfig{
					{Name: "uniform", Band: 0, Procs: motProcs, Arrival: w,
						Source: serve.NewPatternSource(replay.Uniform, motProcs, 0, derive(h.seed, 1))},
					{Name: "hotspot", Band: 1, Procs: motProcs, Arrival: w,
						Source: serve.NewPatternSource(replay.Hotspot, motProcs, 0, derive(h.seed, 2))},
				},
				Engines:      engines,
				Seed:         derive(h.seed, 0),
				Interconnect: serve.MOT2D,
			}, 0, nil
		},
	})
}

// recordTrace records a PRAMTRC1 trace of uniform traffic on a one-lane
// DMMPC machine, the input of serve-mix's trace-backed tenant.
func recordTrace(seed int64, procs, steps int) ([]byte, error) {
	built, err := replay.Config{Kind: replay.KindDMMPC, Lanes: 1, Procs: procs,
		Mode: model.CRCWPriority, Seed: derive(seed, 5)}.Build()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	rec, err := replay.NewRecorder(&buf, built)
	if err != nil {
		return nil, err
	}
	gen := replay.NewGenerator(replay.Uniform, 1, procs, built.Params.Mem, derive(seed, 1))
	for s := 0; s < steps; s++ {
		if rep := built.Machine.ExecuteStep(gen.Step(s)[0]); rep.Err != nil {
			return nil, fmt.Errorf("recording trace step %d: %w", s, rep.Err)
		}
	}
	if err := rec.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// built is a deployment and the medians of its builds, in s.
type built struct {
	s      *serve.Server
	cfg    serve.Config // without the harness's Source wrappers
	setup  float64      // inputs recorded plus NewServer
	server float64      // NewServer alone
	record float64      // inputs recorded alone
}

// setup builds the deployment repeatedly (see minSetupReps) and keeps the
// last server. Before each build it returns the heap to the OS, so every
// build faults its memory in as a server starting in a fresh process does.
// With a plain GC instead, the first builds of a run faulted memory in and
// the later ones reused it, about 1.5 times faster, and the run's median
// jumped between the two.
func (h *harness) setup(config func(*harness) (serve.Config, int64, error)) (built, error) {
	var total, alone, record []float64
	var b built
	var spent int64
	for i := 0; i < minSetupReps || (spent < minSetupTime && i < maxSetupReps); i++ {
		if b.s != nil {
			b.s.Close()
			b.s = nil
		}
		debug.FreeOSMemory()
		cfg, recNs, err := config(h)
		if err != nil {
			return b, err
		}
		b.cfg = cfg
		h.wrapSources(&cfg)
		start := h.ns()
		if b.s, err = serve.NewServer(cfg); err != nil {
			return b, err
		}
		end := h.ns()
		h.tr.add(0, 0, 0, spNewServer, start, end)
		spent += end - start + recNs
		alone = append(alone, float64(end-start)/1e9)
		record = append(record, float64(recNs)/1e9)
		total = append(total, float64(end-start+recNs)/1e9)
	}
	b.setup, b.server, b.record = median(total), median(alone), median(record)
	return b, nil
}

// runOffline runs one closed-loop workload.
func runOffline(h *harness, o offline) (*report, error) {
	rep := newReport()
	b, err := h.setup(o.config)
	if err != nil {
		return nil, err
	}
	s := b.s
	defer s.Close()
	rep.e2e["setup_s"] = b.setup
	rep.layer["setup.newserver_s"] = b.server
	rep.layer["replay.record_s"] = b.record
	reg := &prom.Registry{}
	s.Metrics(reg)

	nt := len(h.srcs)
	pulled := make([][]int32, nt) // pulled[t][k]: the round that served credit k of tenant t
	roundEnd := make([]int64, 0, 1<<16)
	var roundDur, scrapeMs []float64
	var scrapeBytes int64
	var dedup, components, active, roundNs int64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var steal stealMeter
	if err := steal.start(); err != nil {
		return nil, err
	}

	start := h.ns()
	deadline := start + int64(h.window)
	checkAt := start + int64(h.window)/checkShare
	nextScrape := start + int64(scrapeEvery)
	var ck *checkpoint
	for {
		id := h.tr.newID()
		h.curSpan = id
		t0 := h.ns()
		n := s.Round()
		end := h.ns()
		r := int32(len(roundEnd))
		roundEnd = append(roundEnd, end)
		for t, c := range h.srcs {
			for len(pulled[t]) < c.pulls {
				pulled[t] = append(pulled[t], r)
			}
		}
		if h.tr != nil {
			h.tr.add(id, 0, 0, spRound, t0, end)
			roundDur = append(roundDur, float64(end-t0)/1e3)
			roundNs += end - t0
			if n > 0 {
				p := s.Pool()
				for sh := 0; sh < engines; sh++ {
					dedup += int64(p.LastDedupRequests(sh))
				}
				components += int64(p.LastComponents())
				active += int64(p.LastActive())
			}
		}
		if end >= nextScrape {
			// The exposition /metrics renders, without HTTP: the scrape is
			// due between rounds and costs what the registry render costs.
			nextScrape += int64(scrapeEvery)
			sid := h.tr.newID()
			t1 := h.ns()
			nb, err := reg.WriteTo(io.Discard)
			t2 := h.ns()
			if err != nil {
				return nil, fmt.Errorf("rendering metrics: %w", err)
			}
			h.tr.add(sid, 0, 0, spHTTPMet, t1, t2)
			scrapeMs = append(scrapeMs, float64(t2-t1)/1e6)
			scrapeBytes = nb
		}
		if ck == nil && end >= checkAt {
			h.pause(spSnapshot, func() { ck = takeCheckpoint(s) })
		}
		if end >= deadline {
			break
		}
	}
	h.curSpan = 0
	stop := roundEnd[len(roundEnd)-1]
	runtime.ReadMemStats(&ms1)
	stolen, err := steal.share()
	if err != nil {
		return nil, err
	}
	rep.layer["host.steal_share"] = stolen
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rounds := int64(len(roundEnd))

	due, done, submit := closedLoopCredits(pulled, roundEnd, start, o.window)
	doneLat, _ := joinFIFO(due, done, start, stop)
	var doneAt []int64
	for _, d := range done {
		doneAt = append(doneAt, d...)
	}
	rep.e2e["steps_per_s"] = spanRate(doneAt, start, stop+1)
	rep.e2e["submit_p50_ms"] = sliceMedian(submit, start, stop)
	rep.e2e["done_p50_ms"] = sliceMedian(doneLat, start, stop)
	rep.layer["loadgen.submit_p90_ms"] = quantile(latencies(submit), 0.9)
	rep.layer["loadgen.done_p90_ms"] = quantile(latencies(doneLat), 0.9)
	rep.layer["loadgen.scrape_p50_ms"] = median(scrapeMs)
	rep.e2e["mem_peak_mb"] = peak
	rep.layer["trace.steps_per_s"] = rep.e2e["steps_per_s"]
	rep.layer["loadgen.sent"] = float64(len(submit))
	rep.layer["loadgen.submit_p99_ms"] = quantile(latencies(submit), 0.99)
	rep.layer["loadgen.done_p99_ms"] = quantile(latencies(doneLat), 0.99)
	rep.layer["http.metrics_p50_ms"] = median(scrapeMs)
	rep.layer["http.metrics_bytes"] = float64(scrapeBytes)
	rep.layer["round.p50_us"] = median(roundDur)
	rep.layer["round.p90_us"] = quantile(roundDur, 0.9)
	rep.layer["round.p99_us"] = quantile(roundDur, 0.99)
	rep.layer["mem.alloc_bytes_per_round"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(rounds)
	rep.layer["mem.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
	rep.layer["mem.heap_peak_mb"] = float64(ms1.HeapSys) / (1 << 20)
	if h.tr != nil {
		rows := aggregate(h.tr.spans)
		rep.rows = rows
		if nx := rows[spNext]; nx != nil {
			rep.layer["source.next_p50_us"] = nx.p50
			rep.layer["source.share"] = float64(nx.total) / float64(roundNs)
		}
		var issued int64
		for _, c := range h.srcs {
			issued += c.issued
		}
		if issued > 0 {
			rep.layer["quorum.dedup_ratio"] = float64(dedup) / float64(issued)
		}
		if ex := s.Stats().ExecRounds; ex > 0 {
			rep.layer["pool.active_mean"] = float64(active) / float64(ex) / engines
			rep.layer["pool.components_mean"] = float64(components) / float64(ex)
		}
	}
	serverLayers(rep, s, roundNs)
	rep.attempted += int64(len(scrapeMs))
	accountCredits(rep, s, false)
	if err := h.reference(rep, s, ck, b.cfg); err != nil {
		return nil, err
	}
	if o.verify != nil {
		if err := o.verify(h, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkShare sets where the output check looks at the timed run: at the
// first round that ends after 1/checkShare of the window. A reference for
// the whole window would take about as long as the window again, and half
// as long again on serve-mot2d, whose reference runs its two shards one
// after the other; a quarter still checks thousands of rounds, the
// scratch regrowth of serve-mix's first seconds among them.
const checkShare = 4

// checkpoint is the state of the timed run that the reference must
// reproduce: per-tenant step counts and report hashes and the store
// fingerprint after a number of rounds.
type checkpoint struct {
	rounds  int64
	fp      uint64
	tenants []serve.TenantStats
}

func takeCheckpoint(s *serve.Server) *checkpoint {
	ck := &checkpoint{rounds: s.Stats().Rounds, fp: s.Fingerprint()}
	for i := 0; i < s.NumTenants(); i++ {
		ck.tenants = append(ck.tenants, s.TenantStats(i))
	}
	return ck
}

// reference reruns the timed mix untimed on a fresh server whose pool runs
// its components serially in shard order (Workers: 1), for the
// checkpoint's rounds, and checks per-tenant step counts and report hashes
// and the store fingerprint against the checkpoint. It closes the timed
// server first, so only one store is resident at a time.
func (h *harness) reference(rep *report, s *serve.Server, ck *checkpoint, cfg serve.Config) error {
	s.Close()
	runtime.GC()
	start := h.ns()
	cfg.Workers = 1
	ref, err := serve.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("building reference server: %w", err)
	}
	defer ref.Close()
	ref.Run(int(ck.rounds))
	for i, g := range ck.tenants {
		want := ref.TenantStats(i)
		rep.check(g.Steps == want.Steps && g.Hash == want.Hash,
			"tenant %s after %d rounds: %d steps hash %016x, reference %d steps hash %016x",
			g.Name, ck.rounds, g.Steps, g.Hash, want.Steps, want.Hash)
	}
	rep.check(ck.fp == ref.Fingerprint(), "store fingerprint after %d rounds %016x, reference %016x",
		ck.rounds, ck.fp, ref.Fingerprint())
	h.tr.add(0, 0, 0, spReference, start, h.ns())
	return nil
}

// serverLayers adds the per-layer metrics read from the server's public
// counters; hostNs is the host time spent in the rounds that did the work.
func serverLayers(rep *report, s *serve.Server, hostNs int64) {
	st := s.Stats()
	var steps, sim, quorumT, phases, copies int64
	for i := 0; i < s.NumTenants(); i++ {
		ts := s.TenantStats(i)
		steps += ts.Steps
		sim += ts.SimTime
		quorumT += ts.QuorumTime
		phases += ts.Phases
		copies += ts.Copies
	}
	var net mot.Stats
	for sh := 0; sh < s.Engines(); sh++ {
		if nw, ok := s.Pool().ShardInterconnect(sh).(*mot.Network); ok {
			ns := nw.Stats()
			net.Cycles += ns.Cycles
			net.Hops += ns.Hops
			net.Collisions += ns.Collisions
		}
	}
	per := func(x int64) float64 { return float64(x) / float64(max(steps, 1)) }
	rep.e2e["sim_time_per_step"] = per(sim)
	rep.layer["round.exec_share"] = float64(st.ExecRounds) / float64(max(st.Rounds, 1))
	rep.layer["round.steps_per_exec"] = float64(steps) / float64(max(st.ExecRounds, 1))
	rep.layer["round.forced_merges"] = float64(st.ForcedMerges)
	rep.layer["round.merged_share"] = float64(st.MergedRounds) / float64(max(st.ExecRounds, 1))
	rep.layer["quorum.phases_per_step"] = per(phases)
	rep.layer["quorum.copies_per_step"] = per(copies)
	rep.layer["quorum.read_share"] = float64(quorumT) / float64(max(sim, 1))
	rep.layer["mot.cycles_per_step"] = per(net.Cycles)
	rep.layer["mot.hops_per_step"] = per(net.Hops)
	rep.layer["mot.collisions_per_step"] = per(net.Collisions)
	if hostNs > 0 {
		if copies > 0 {
			rep.layer["quorum.ns_per_copy"] = float64(hostNs) / float64(copies)
		}
		if net.Hops > 0 {
			rep.layer["mot.ns_per_hop"] = float64(hostNs) / float64(net.Hops)
		}
	}
}

// accountCredits adds the tenant credits to the run's account: each one is
// attempted, and a rejected, unserved or conflict-error one failed. With
// viaHTTP the credits arrived as requests the caller already counted (a
// rejected one as a 429), so only their later outcomes are added. A source
// error fails the run.
func accountCredits(rep *report, s *serve.Server, viaHTTP bool) {
	for i := 0; i < s.NumTenants(); i++ {
		ts := s.TenantStats(i)
		if !viaHTTP {
			rep.attempted += ts.Submitted
			rep.failed += ts.Rejected
		}
		rep.failed += ts.Unserved + ts.ErrSteps
		rep.check(ts.SrcErr == nil, "tenant %s: source error: %v", ts.Name, ts.SrcErr)
		rep.check(ts.Submitted == ts.Steps+int64(ts.Queue)+ts.Rejected+ts.Unserved,
			"tenant %s: admission identity broken: submitted %d != steps %d + queue %d + rejected %d + unserved %d",
			ts.Name, ts.Submitted, ts.Steps, ts.Queue, ts.Rejected, ts.Unserved)
		if ts.SrcErr != nil {
			rep.failed++
		}
	}
	if rep.attempted > 0 {
		rep.e2e["ok_share"] = 1 - float64(rep.failed)/float64(rep.attempted)
	}
}
