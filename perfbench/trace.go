package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Span names. Each marks one layer boundary the harness calls across.
const (
	spSubmit     = "loadgen.submit"  // client POST /submit, one per tenant credit
	spScrape     = "loadgen.scrape"  // client GET /metrics
	spSpansDump  = "loadgen.spans"   // client GET /debug/spans
	spHTTPSubmit = "http.submit"     // server-side /submit handler
	spHTTPMet    = "http.metrics"    // server-side /metrics handler, or the in-process render
	spHTTPSpans  = "http.spans"      // server-side /debug/spans handler
	spTick       = "serve.tick"      // HTTPServer.Tick
	spRound      = "serve.round"     // Server.Round
	spNext       = "source.next"     // Source.NextBatch
	spNewServer  = "setup.newserver" // serve.NewServer
	spRecord     = "replay.record"   // PRAMTRC1 trace recording
	spVerify     = "replay.verify"   // trace or script replay check
	spSnapshot   = "check.snapshot"  // checkpoint of the timed run, clock paused
	spReference  = "check.reference" // untimed reference run
)

// span is one recorded interval. Times are ns since the tracer's epoch;
// parent 0 is a root span and req 0 a span outside any tenant credit.
type span struct {
	id, parent int64
	req        int64
	name       string
	start, end int64
}

// tracer keeps spans in memory for the whole run; they are written out
// when the benchmark ends. A nil *tracer records nothing, so untraced runs
// pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

// reqID names credit k (0-based) of tenant t.
func reqID(t, k int) int64 { return int64(t+1)<<32 | int64(k+1) }

// newID reserves a span id, so children can name a parent that has not
// ended yet.
func (tr *tracer) newID() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	tr.next++
	id := tr.next
	tr.mu.Unlock()
	return id
}

// add records a finished span under a reserved id (0 reserves one).
func (tr *tracer) add(id, parent, req int64, name string, start, end int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if id == 0 {
		tr.next++
		id = tr.next
	}
	tr.spans = append(tr.spans, span{id: id, parent: parent, req: req, name: name, start: start, end: end})
	tr.mu.Unlock()
}

// layerRow is one span name's aggregate.
type layerRow struct {
	count     int
	total     int64 // summed duration, ns
	self      int64 // summed self time, ns
	p50, p99  float64
	durations []float64 // µs
}

// aggregate derives per-name totals and self times. A span's self time is
// its duration minus the part of it its children's intervals cover.
func aggregate(spans []span) map[string]*layerRow {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{}
			rows[s.name] = r
		}
		d := s.end - s.start
		r.count++
		r.total += d
		r.self += d - covered(s, children[s.id])
		r.durations = append(r.durations, float64(d)/1e3)
	}
	for _, r := range rows {
		r.p50 = median(r.durations)
		r.p99 = quantile(r.durations, 0.99)
	}
	return rows
}

// covered returns how much of parent's interval the union of the children's
// intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return sum + curHi - curLo
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	return bw.Flush()
}

// writeLayerTable renders the per-span-name aggregate, sorted by name.
func writeLayerTable(w io.Writer, rows map[string]*layerRow) {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %9s %12s %12s %10s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us", "p99_us")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-16s %9d %12.3f %12.3f %10.2f %10.2f\n",
			n, r.count, float64(r.total)/1e6, float64(r.self)/1e6, r.p50, r.p99)
	}
}
