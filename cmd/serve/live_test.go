package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/replay"
	"repro/internal/serve"
)

// TestLiveFlightReplaysBitForBit is the end-to-end flight-recorder
// acceptance: a live HTTP-driven run with an autoscaler records a script,
// a trace and a flight dump; rebuilding the deployment from the script
// meta and replaying with a SHADOW autoscaler (what `serve replay -flight`
// does) reproduces the flight dump — decisions, resizes, rejects and all —
// byte for byte, along with the trace.
func TestLiveFlightReplaysBitForBit(t *testing.T) {
	const tenantSpec, arrivalSpec, autoscaleSpec = "uniform,hotspot", "external", "1:2:4"
	sf := &sharedFlags{procs: 8, engines: 1, queue: 4, seed: 3, wseed: 42, mode: "crcw"}
	arr, err := parseArrival(arrivalSpec)
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := parseTenants(tenantSpec, sf, arr)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sf.config(tcs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var trace, script bytes.Buffer
	if err := s.StartTrace(&trace); err != nil {
		t.Fatal(err)
	}
	rec, err := replay.NewScriptRecorder(&script, metaLine(sf, tenantSpec, arrivalSpec, s.Engines(), autoscaleSpec))
	if err != nil {
		t.Fatal(err)
	}
	acfg, err := parseAutoscale(autoscaleSpec)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.NewHTTPServer(s, serve.HTTPOptions{
		Script:     rec,
		Autoscaler: serve.NewAutoscaler(s, acfg),
	})
	ts := httptest.NewServer(h.Handler())
	defer ts.Close()

	// Saturating submissions force rejections → the autoscaler grows →
	// then silence shrinks it back: the flight dump gets rounds, submits,
	// rejects, decisions and resizes in both directions.
	for r := 0; r < 40; r++ {
		if r < 20 {
			tn := "t0-uniform"
			if r%3 == 0 {
				tn = "t1-hotspot"
			}
			resp, err := http.Post(fmt.Sprintf("%s/submit?tenant=%s&steps=3", ts.URL, tn), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		h.Tick()
	}
	if err := h.Shutdown(); err != nil {
		t.Fatal(err)
	}
	var liveFlight bytes.Buffer
	if err := s.WriteFlight(&liveFlight); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Resizes; got == 0 {
		t.Fatalf("live run performed no resizes — the scenario no longer exercises decisions")
	}

	// Replay exactly as cmdReplay does: deployment from meta, shadow
	// autoscaler from the recorded policy.
	sc, err := replay.ReadScript(bytes.NewReader(script.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rcfg, err := configFromMeta(sc.Meta, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serve.NewServer(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	var repTrace bytes.Buffer
	if err := rep.StartTrace(&repTrace); err != nil {
		t.Fatal(err)
	}
	spec, err := metaValue(sc.Meta, "autoscale")
	if err != nil {
		t.Fatal(err)
	}
	if spec != autoscaleSpec {
		t.Fatalf("autoscale meta %q, want %q", spec, autoscaleSpec)
	}
	racfg, err := parseAutoscale(spec)
	if err != nil {
		t.Fatal(err)
	}
	shadow := serve.NewAutoscaler(rep, racfg)
	rep.PlayScriptObserved(sc.Events, sc.Rounds, func() { shadow.Observe() })
	if err := rep.StopTrace(); err != nil {
		t.Fatal(err)
	}

	var repFlight bytes.Buffer
	if err := rep.WriteFlight(&repFlight); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveFlight.Bytes(), repFlight.Bytes()) {
		t.Errorf("flight dump diverged:\nlive:\n%s\nreplay:\n%s", liveFlight.String(), repFlight.String())
	}
	if !bytes.Equal(trace.Bytes(), repTrace.Bytes()) {
		t.Errorf("re-recorded trace differs from live capture (%d vs %d bytes)", trace.Len(), repTrace.Len())
	}
	if fp := rep.Fingerprint(); fp != sc.Fingerprint {
		t.Errorf("replay fingerprint %016x != recorded %016x", fp, sc.Fingerprint)
	}
}

// TestNewLiveServerTimeouts pins the live listener's connection timeouts:
// header reads and idle keep-alives are bounded, while writes are not (a
// pprof profile streams for its requested duration).
func TestNewLiveServerTimeouts(t *testing.T) {
	srv := newLiveServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (pprof profiles stream past any fixed bound)", srv.WriteTimeout)
	}
}
