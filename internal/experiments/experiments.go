// Package experiments implements the reproduction harness: one runner per
// experiment in DESIGN.md §4 (E1–E8), each regenerating the table that
// operationalizes one of the paper's claims. The cmd/experiments CLI prints
// them and the root bench_test.go smoke-runs two of them; the wall-clock
// benchmarks of the same machines live in internal/benchsuite. Their
// recorded outputs live in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Result is a finished experiment: a rendered table plus interpretation.
type Result struct {
	ID    string
	Title string
	Claim string // the paper statement being reproduced
	Table *stats.Table
	Notes []string
}

// String renders the result for terminal output.
func (r Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "claim: %s\n\n", r.Claim)
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Markdown renders the result as a markdown section (the EXPERIMENTS.md
// source format).
func (r Result) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "**Claim:** %s\n\n", r.Claim)
	sb.WriteString(r.Table.Markdown())
	if len(r.Notes) > 0 {
		sb.WriteString("\n")
		for _, n := range r.Notes {
			sb.WriteString("- " + n + "\n")
		}
	}
	return sb.String()
}

// Runner produces a Result.
type Runner func() Result

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"e1":  E1LowerBound,
	"e2":  E2Expansion,
	"e3":  E3DMMPC,
	"e4":  E4MPCvsDMMPC,
	"e5":  E5MOT,
	"e6":  E6Comparison,
	"e7":  E7IDA,
	"e8":  E8VLSI,
	"e9":  E9PROM,
	"e10": E10Ablations,
	"e11": E11Slowdown,
	"e14": E14ReplaySweep,
	"e17": E17StageAttribution,
}

// order fixes the presentation sequence (numeric, not lexicographic).
var order = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e14", "e17"}

// IDs returns the registered experiment ids in numeric order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, id := range order {
		if _, ok := registry[id]; ok {
			out = append(out, id)
		}
	}
	if len(out) != len(registry) {
		// A runner was registered without being added to `order`.
		missing := make([]string, 0)
		//pram:unordered membership scan; missing is sorted before use below
		for id := range registry {
			found := false
			for _, o := range out {
				if o == id {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, id)
			}
		}
		sort.Strings(missing)
		out = append(out, missing...)
	}
	return out
}

// Run executes one experiment by id.
func Run(id string) (Result, bool) {
	r, ok := registry[strings.ToLower(id)]
	if !ok {
		return Result{}, false
	}
	return r(), true
}

// All runs every experiment in order.
func All() []Result {
	var out []Result
	for _, id := range IDs() {
		r, _ := Run(id)
		out = append(out, r)
	}
	return out
}
