// The spans verb: serve a mix entirely in virtual time and dump the span
// recorder's per-stage makespan attribution as Chrome/Perfetto
// trace-event JSON — the offline twin of GET /debug/spans. Load the
// output into https://ui.perfetto.dev (or chrome://tracing) to see each
// round decomposed into scheduling, partition, per-tenant quorum and
// commit legs, per-shard routing and the closing merge on the virtual
// makespan clock.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func cmdSpans(args []string) error {
	fs := flag.NewFlagSet("serve spans", flag.ExitOnError)
	sf := addShared(fs)
	tenants := fs.String("tenants", "uniform,uniform", "tenant mix spec (see package doc)")
	arrival := fs.String("arrival", "closed:2", "arrival process: closed:W or open:PERIOD:BURST[:ON:OFF]")
	out := fs.String("o", "-", "write the trace-event JSON to FILE (- = stdout)")
	limit := fs.Int("limit", 0, "emit only the N most recent spans (0 = all retained; truncation is counted in the dump)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	arr, err := parseArrival(*arrival)
	if err != nil {
		return err
	}
	tcs, err := parseTenants(*tenants, sf, arr)
	if err != nil {
		return err
	}
	cfg, err := sf.config(tcs)
	if err != nil {
		return err
	}
	o, err := execute(cfg, sf.rounds)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "-" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		w = f
	}
	werr := o.server.WriteSpansTail(w, *limit)
	if f != nil {
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
	}
	if werr != nil {
		return werr
	}
	// The JSON owns stdout when -o is "-": the human-readable summary goes
	// to stderr either way.
	rec := o.server.Spans()
	fmt.Fprintf(os.Stderr, "spans: %d recorded, %d retained, %d dropped — %d exec rounds, virtual clock %d\n",
		rec.Total(), rec.Len(), rec.Dropped(), o.serverStats.ExecRounds, rec.Now())
	return nil
}
