package main

import (
	"repro/internal/model"
	"repro/internal/replay"
	"repro/internal/serve"
)

// countedSource wraps a tenant's Source to count NextBatch pulls. The
// server pulls one batch per executed step, on the goroutine that runs the
// round, so the count after each round says which credits that round
// served (see joinFIFO). In a traced run it also times each pull as a
// source.next span under the round's span and counts the requests the
// batch issues, the base of quorum.dedup_ratio.
type countedSource struct {
	inner  serve.Source
	tenant int
	h      *harness

	pulls  int   // batches handed out
	issued int64 // requests (non-idle slots) in those batches, traced runs only
}

// wrapSources replaces every tenant's factory with one that wraps the
// built Source in a countedSource and records it in h.srcs. The last
// server built from cfg owns the recorded sources.
func (h *harness) wrapSources(cfg *serve.Config) {
	h.srcs = make([]*countedSource, len(cfg.Tenants))
	cfg.Tenants = append([]serve.TenantConfig(nil), cfg.Tenants...)
	for i := range cfg.Tenants {
		i, f := i, cfg.Tenants[i].Source
		cfg.Tenants[i].Source = func(b serve.Band) serve.Source {
			c := &countedSource{inner: f(b), tenant: i, h: h}
			h.srcs[i] = c
			return c
		}
	}
}

// Procs implements serve.Source.
func (c *countedSource) Procs() int { return c.inner.Procs() }

// Err implements serve.Source.
func (c *countedSource) Err() error { return c.inner.Err() }

// NextBatch implements serve.Source.
func (c *countedSource) NextBatch() (model.Batch, bool) {
	tr := c.h.tr
	if tr == nil || c.h.curSpan == 0 {
		b, ok := c.inner.NextBatch()
		if ok {
			c.pulls++
		}
		return b, ok
	}
	start := c.h.ns()
	b, ok := c.inner.NextBatch()
	tr.add(0, c.h.curSpan, reqID(c.tenant, c.pulls), spNext, start, c.h.ns())
	if ok {
		c.pulls++
		for i := range b {
			if b[i].Op != model.OpNone {
				c.issued++
			}
		}
	}
	return b, ok
}

// TraceConfig forwards the wrapped source's PRAMTRC1 header, so NewServer
// still checks a trace tenant's recorded machine kind against the fabric.
func (c *countedSource) TraceConfig() (replay.Config, bool) {
	return serve.TraceHeader(c.inner)
}
