package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/replay"
	"repro/internal/serve"
)

// The http-open deployment and its offered load.
const (
	httpProcs    = 64
	httpRate     = 1000 // POST /submit per second, round-robin over the tenants
	httpQueueCap = 64   // large enough that the offered load is never answered 429
	tickEvery    = time.Millisecond
	// maxLateP90 is the generator lateness beyond which a run is invalid:
	// the generator, not the server, set the pace.
	maxLateP90 = 10 * time.Millisecond
	// drainWait bounds how long the harness keeps ticking after the window
	// for the last admitted credits to execute.
	drainWait = 5 * time.Second
)

// httpPatterns are the four band-local tenants' traffic shapes.
var httpPatterns = []replay.Pattern{replay.Uniform, replay.Hotspot, replay.Uniform, replay.Broadcast}

// Request headers that carry a client span's id and its credit's request id
// to the traced handler.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

func httpConfig(seed int64) serve.Config {
	tcs := make([]serve.TenantConfig, len(httpPatterns))
	for i, p := range httpPatterns {
		tcs[i] = serve.TenantConfig{
			Name: fmt.Sprintf("t%d-%v", i, p), Band: i, Procs: httpProcs,
			Arrival: serve.Arrival{External: true},
			Source:  serve.NewPatternSource(p, httpProcs, 0, derive(seed, i+1)),
		}
	}
	return serve.Config{Tenants: tcs, Engines: engines, Seed: derive(seed, 0), QueueCap: httpQueueCap}
}

// sendLog is one client request's record, times in ns since the epoch.
type sendLog struct {
	tenant    int
	due, sent int64
	end       int64
	status    int // 0 on a transport error
	bytes     int64
}

// ticker is the round loop's record, written only by its goroutine.
type ticker struct {
	busy, lag  []float64 // µs
	busyNs     int64
	from, to   int64     // the loop's lifetime, ns since the epoch
	done       [][]int64 // done[t][k]: end of the Tick that pulled credit k of tenant t
	pulled     atomic.Int64
	dedup      int64 // traced runs: post-dedup requests, components and
	components int64 // active shards summed over executing Ticks
	active     int64
	execTicks  int64
}

func runHTTPOpen(h *harness) (*report, error) {
	rep := newReport()
	b, err := h.setup(func(h *harness) (serve.Config, int64, error) { return httpConfig(h.seed), 0, nil })
	if err != nil {
		return nil, err
	}
	s := b.s
	defer s.Close()
	rep.e2e["setup_s"] = b.setup
	rep.layer["setup.newserver_s"] = b.server

	var script bytes.Buffer
	rec, err := replay.NewScriptRecorder(&script, fmt.Sprintf("perfbench http-open seed=%d", h.seed))
	if err != nil {
		return nil, err
	}
	hs := serve.NewHTTPServer(s, serve.HTTPOptions{Script: rec})
	handler := hs.Handler()
	if h.tr != nil {
		handler = h.traceHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	nt := len(httpPatterns)
	tk := &ticker{done: make([][]int64, nt)}
	stopTick, tickDone := make(chan struct{}), make(chan struct{})
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var steal stealMeter
	if err := steal.start(); err != nil {
		return nil, err
	}
	rounds0 := s.Stats().Rounds

	// The first request is due shortly after the loops start, not before.
	start := h.ns() + int64(10*time.Millisecond)
	end := start + int64(h.window)
	go h.tickLoop(hs, s, tk, stopTick, tickDone)

	var subs, scrapes []sendLog
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); subs = h.submitLoop(base, b.cfg, start, end) }()
	go func() { defer wg.Done(); scrapes = h.scrapeLoop(base, start, end) }()
	wg.Wait()
	stolen, stealErr := steal.share()
	peak, peakErr := peakRSSMB()

	// Keep ticking until every admitted credit has executed.
	due := make([][]int64, nt)
	var accepted int64
	for _, l := range subs {
		if l.status == http.StatusOK {
			due[l.tenant] = append(due[l.tenant], l.due)
			accepted++
		}
	}
	for wait := time.Now(); tk.pulled.Load() < accepted && time.Since(wait) < drainWait; {
		time.Sleep(time.Millisecond)
	}
	close(stopTick)
	<-tickDone
	h.curSpan = 0
	runtime.ReadMemStats(&ms1)
	rounds := s.Stats().Rounds - rounds0
	shutErr := hs.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("stopping the HTTP listener: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, fmt.Errorf("HTTP listener: %w", err)
	}
	if shutErr != nil {
		return nil, fmt.Errorf("HTTPServer.Shutdown: %w", shutErr)
	}
	if err := errors.Join(stealErr, peakErr); err != nil {
		return nil, err
	}
	rep.layer["host.steal_share"] = stolen

	// End-to-end metrics, over requests due in the window.
	var submit []sample
	var lateMs []float64
	var failed, refused int64
	for _, l := range subs {
		submit = append(submit, sample{l.due, float64(l.end-l.due) / 1e6})
		lateMs = append(lateMs, float64(l.sent-l.due)/1e6)
		if l.status < 200 || l.status > 299 {
			failed++
		}
		if l.status == http.StatusTooManyRequests || l.status == http.StatusServiceUnavailable {
			refused++
		}
	}
	var metricsMs, spansMs []float64
	var metricsBytes, spansBytes int64
	for _, l := range scrapes {
		if l.status < 200 || l.status > 299 {
			failed++
		}
		if l.tenant == scrapeSpans {
			spansMs = append(spansMs, float64(l.end-l.sent)/1e6)
			spansBytes = l.bytes
		} else {
			metricsMs = append(metricsMs, float64(l.end-l.sent)/1e6)
			metricsBytes = l.bytes
		}
	}
	doneLat, unserved := joinFIFO(due, tk.done, start, end)
	var doneAt []int64
	for _, d := range tk.done {
		doneAt = append(doneAt, d...)
	}
	rep.check(unserved == 0, "%d admitted credits never executed", unserved)
	// The offered load sets the pace, so the rate is the offered one up to
	// timer jitter; a shortfall means the server fell behind.
	rep.e2e["steps_per_s"] = spanRate(doneAt, start, end)
	rep.e2e["submit_p50_ms"] = sliceMedian(submit, start, end)
	rep.e2e["done_p50_ms"] = sliceMedian(doneLat, start, end)
	rep.layer["loadgen.submit_p90_ms"] = quantile(latencies(submit), 0.9)
	rep.layer["loadgen.done_p90_ms"] = quantile(latencies(doneLat), 0.9)
	rep.layer["loadgen.scrape_p50_ms"] = median(metricsMs)
	rep.e2e["mem_peak_mb"] = peak
	rep.layer["trace.steps_per_s"] = rep.e2e["steps_per_s"]
	rep.layer["loadgen.late_p50_ms"] = median(lateMs)
	rep.layer["loadgen.late_p90_ms"] = quantile(lateMs, 0.9)
	rep.layer["loadgen.sent"] = float64(len(subs))
	rep.layer["loadgen.submit_p99_ms"] = quantile(latencies(submit), 0.99)
	rep.layer["loadgen.done_p99_ms"] = quantile(latencies(doneLat), 0.99)
	rep.layer["http.metrics_bytes"] = float64(metricsBytes)
	rep.layer["http.spans_bytes"] = float64(spansBytes)
	rep.layer["http.refused"] = float64(refused)
	rep.layer["tick.busy_p50_us"] = median(tk.busy)
	rep.layer["tick.busy_p99_us"] = quantile(tk.busy, 0.99)
	rep.layer["tick.lag_p50_us"] = median(tk.lag)
	rep.layer["tick.lag_p99_us"] = quantile(tk.lag, 0.99)
	rep.layer["tick.busy_share"] = float64(tk.busyNs) / float64(tk.to-tk.from)
	rep.layer["mem.alloc_bytes_per_round"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(rounds, 1))
	rep.layer["mem.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
	rep.layer["mem.heap_peak_mb"] = float64(ms1.HeapSys) / (1 << 20)
	if late := quantile(lateMs, 0.9); late > float64(maxLateP90)/1e6 {
		rep.invalid = fmt.Errorf("load generator p90 lateness %.3f ms exceeds %v", late, maxLateP90)
	}
	if h.tr != nil {
		rows := aggregate(h.tr.spans)
		rep.rows = rows
		if r := rows[spHTTPSubmit]; r != nil {
			rep.layer["http.submit_p50_us"] = r.p50
			rep.layer["http.submit_p99_us"] = r.p99
		}
		if r := rows[spHTTPMet]; r != nil {
			rep.layer["http.metrics_p50_ms"] = r.p50 / 1e3
		}
		if r := rows[spHTTPSpans]; r != nil {
			rep.layer["http.spans_p50_ms"] = r.p50 / 1e3
		}
		if r := rows[spNext]; r != nil && tk.busyNs > 0 {
			rep.layer["source.next_p50_us"] = r.p50
			rep.layer["source.share"] = float64(r.total) / float64(tk.busyNs)
		}
		var issued int64
		for _, c := range h.srcs {
			issued += c.issued
		}
		if issued > 0 {
			rep.layer["quorum.dedup_ratio"] = float64(tk.dedup) / float64(issued)
		}
		if tk.execTicks > 0 {
			rep.layer["pool.active_mean"] = float64(tk.active) / float64(tk.execTicks) / engines
			rep.layer["pool.components_mean"] = float64(tk.components) / float64(tk.execTicks)
		}
	}
	serverLayers(rep, s, tk.busyNs)
	rep.attempted += int64(len(subs) + len(scrapes))
	rep.failed += failed
	accountCredits(rep, s, true)
	if err := h.verifyScript(rep, s, b.cfg, script.Bytes()); err != nil {
		return nil, err
	}
	return rep, nil
}

// tickLoop is HTTPServer.Loop at tickEvery with each Tick timed: busy is
// the Tick's duration and lag how late it started against the ticker.
// After each Tick it stamps the credits that Tick pulled.
func (h *harness) tickLoop(hs *serve.HTTPServer, s *serve.Server, tk *ticker, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(tickEvery)
	defer t.Stop()
	tk.from = h.ns()
	for {
		select {
		case <-stop:
			tk.to = h.ns()
			return
		case at := <-t.C:
			id := h.tr.newID()
			h.curSpan = id
			t0 := h.ns()
			hs.Tick()
			t1 := h.ns()
			h.tr.add(id, 0, 0, spTick, t0, t1)
			tk.busy = append(tk.busy, float64(t1-t0)/1e3)
			tk.lag = append(tk.lag, float64(t0-int64(at.Sub(h.epoch)))/1e3)
			tk.busyNs += t1 - t0
			var total, pulled int64
			for i, c := range h.srcs {
				for len(tk.done[i]) < c.pulls {
					tk.done[i] = append(tk.done[i], t1)
					pulled++
				}
				total += int64(c.pulls)
			}
			tk.pulled.Store(total)
			if h.tr != nil && pulled > 0 {
				// Round state only Tick writes, read on the Tick goroutine.
				p := s.Pool()
				for sh := 0; sh < engines; sh++ {
					tk.dedup += int64(p.LastDedupRequests(sh))
				}
				tk.components += int64(p.LastComponents())
				tk.active += int64(p.LastActive())
				tk.execTicks++
			}
		}
	}
}

// newClient returns a client held to one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// sleepUntil sleeps until ns-since-epoch t.
func (h *harness) sleepUntil(t int64) {
	if d := t - h.ns(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// submitLoop is the open-loop generator: one POST /submit?steps=1 due
// every 1/httpRate s in [start, end), round-robin over the tenants, on one
// connection. Each request is timed from its due time.
func (h *harness) submitLoop(base string, cfg serve.Config, start, end int64) []sendLog {
	c := newClient()
	defer c.CloseIdleConnections()
	nt := len(cfg.Tenants)
	urls := make([]string, nt)
	for i, t := range cfg.Tenants {
		urls[i] = base + "/submit?steps=1&tenant=" + t.Name
	}
	logs := make([]sendLog, 0, int((end-start)*httpRate/int64(time.Second))+1)
	sent := make([]int, nt)
	for i := int64(0); ; i++ {
		due, ok := openLoopDue(start, end, i)
		if !ok {
			return logs
		}
		h.sleepUntil(due)
		t := int(i % int64(nt))
		id := h.tr.newID()
		l := h.do(c, http.MethodPost, urls[t], id, reqID(t, sent[t]))
		l.tenant, l.due = t, due
		h.tr.add(id, 0, reqID(t, sent[t]), spSubmit, l.sent, l.end)
		sent[t]++
		logs = append(logs, l)
	}
}

// scrapeSpans marks a scrape log entry as a /debug/spans dump.
const scrapeSpans = -1

// scrapeLoop is the second connection: GET /metrics every scrapeEvery and
// GET /debug/spans every spansEvery.
func (h *harness) scrapeLoop(base string, start, end int64) []sendLog {
	c := newClient()
	defer c.CloseIdleConnections()
	var logs []sendLog
	for due := start + int64(scrapeEvery); due < end; due += int64(scrapeEvery) {
		h.sleepUntil(due)
		id := h.tr.newID()
		l := h.do(c, http.MethodGet, base+"/metrics", id, 0)
		l.due = due
		h.tr.add(id, 0, 0, spScrape, l.sent, l.end)
		logs = append(logs, l)
		if (due-start)%int64(spansEvery) == 0 {
			id := h.tr.newID()
			l := h.do(c, http.MethodGet, base+"/debug/spans", id, 0)
			l.tenant, l.due = scrapeSpans, due
			h.tr.add(id, 0, 0, spSpansDump, l.sent, l.end)
			logs = append(logs, l)
		}
	}
	return logs
}

// do sends one request and reads the whole response. In a traced run the
// request carries its client span id and request id to the handler.
func (h *harness) do(c *http.Client, method, url string, span, req int64) sendLog {
	var l sendLog
	r, err := http.NewRequest(method, url, nil)
	if err != nil {
		l.sent, l.end = h.ns(), h.ns()
		return l
	}
	if h.tr != nil {
		r.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
		r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	l.sent = h.ns()
	resp, err := c.Do(r)
	if err == nil {
		l.bytes, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil {
			l.status = resp.StatusCode
		}
	}
	l.end = h.ns()
	return l
}

// traceHandler records a span around every handler call, parented to the
// client span named in the request.
func (h *harness) traceHandler(next http.Handler) http.Handler {
	names := map[string]string{"/submit": spHTTPSubmit, "/metrics": spHTTPMet, "/debug/spans": spHTTPSpans}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := h.ns()
		next.ServeHTTP(w, r)
		end := h.ns()
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64) // absent → root span
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if name, ok := names[r.URL.Path]; ok {
			h.tr.add(0, parent, req, name, start, end)
		}
	})
}

// verifyScript replays the recorded arrival script in virtual time on a
// fresh server and checks that it reproduces the live run: per-tenant step
// counts and report hashes, the store fingerprint, and the script footer.
func (h *harness) verifyScript(rep *report, s *serve.Server, cfg serve.Config, script []byte) error {
	start := h.ns()
	sc, err := replay.ReadScript(bytes.NewReader(script))
	if err != nil {
		return fmt.Errorf("reading recorded script: %w", err)
	}
	rs, err := serve.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("building replay server: %w", err)
	}
	defer rs.Close()
	rs.PlayScript(sc.Events, sc.Rounds)
	end := h.ns()
	h.tr.add(0, 0, 0, spVerify, start, end)
	rep.layer["replay.verify_s"] = float64(end-start) / 1e9
	rep.check(len(sc.Tenants) == s.NumTenants(), "script footer has %d tenants, want %d", len(sc.Tenants), s.NumTenants())
	for i := 0; i < s.NumTenants() && i < len(sc.Tenants); i++ {
		live, replayed, foot := s.TenantStats(i), rs.TenantStats(i), sc.Tenants[i]
		rep.check(live.Steps == replayed.Steps && live.Hash == replayed.Hash &&
			live.Steps == foot.Steps && live.Hash == foot.Hash,
			"tenant %s: live %d steps hash %016x, replay %d steps hash %016x, footer %d steps hash %016x",
			live.Name, live.Steps, live.Hash, replayed.Steps, replayed.Hash, foot.Steps, foot.Hash)
	}
	rep.check(s.Fingerprint() == rs.Fingerprint() && s.Fingerprint() == sc.Fingerprint,
		"store fingerprint live %016x, replay %016x, footer %016x", s.Fingerprint(), rs.Fingerprint(), sc.Fingerprint)
	return nil
}
