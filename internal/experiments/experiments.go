// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated substrates in this repository.
//
// Each experiment is a named runner that produces a Table: the same rows or
// series the paper reports, at a configurable scale. `bandana run --all`
// prints every one of them.
//
// The experiments share a lazily-built Env (synthetic workload, SHP layouts,
// access counts) so that running the full suite does not repeat the
// expensive training steps.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Options configures the scale and determinism of the experiment suite.
type Options struct {
	// Scale multiplies the paper's table sizes (10-20 M vectors). The
	// default of 0.004 yields 40 k / 80 k-vector tables that run on a
	// laptop; ratios (cache fractions, block size, sampling rates) are kept
	// identical to the paper.
	Scale float64
	// TrainRequests is the number of requests used to train SHP and the
	// miniature caches.
	TrainRequests int
	// EvalRequests is the number of requests replayed to measure effective
	// bandwidth.
	EvalRequests int
	// SHPIterations is the number of refinement iterations per bisection
	// level.
	SHPIterations int
	// Seed drives all synthetic generation.
	Seed int64
	// Quick shrinks sweep ranges (fewer points, smaller cluster counts) so
	// that a full pass takes seconds.
	Quick bool
}

// DefaultOptions returns the options `bandana run --all` uses without
// --quick.
func DefaultOptions() Options {
	return Options{
		Scale:         0.004,
		TrainRequests: 3000,
		EvalRequests:  1500,
		SHPIterations: 8,
		Seed:          1,
	}
}

// QuickOptions returns a reduced configuration for tests and smoke runs
// (`bandana run --quick`).
func QuickOptions() Options {
	return Options{
		Scale:         0.001,
		TrainRequests: 600,
		EvalRequests:  300,
		SHPIterations: 4,
		Seed:          1,
		Quick:         true,
	}
}

func (o *Options) defaults() {
	if o.Scale <= 0 {
		o.Scale = 0.004
	}
	if o.TrainRequests <= 0 {
		o.TrainRequests = 3000
	}
	if o.EvalRequests <= 0 {
		o.EvalRequests = 1500
	}
	if o.SHPIterations <= 0 {
		o.SHPIterations = 8
	}
}

// Table is the formatted result of one experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
	// Elapsed is how long the experiment took to run.
	Elapsed time.Duration
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if len(t.Columns) == 0 {
		return
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintf(w, "  (elapsed: %s)\n\n", t.Elapsed.Round(time.Millisecond))
}

// Runner executes experiments against a shared environment.
type Runner struct {
	opts Options
	env  *env
}

// NewRunner creates a Runner.
func NewRunner(opts Options) *Runner {
	opts.defaults()
	return &Runner{opts: opts, env: newEnv(opts)}
}

// experimentFunc produces a result table.
type experimentFunc func(*Runner) (*Table, error)

// registry maps experiment IDs to runners, in presentation order.
var registry = []struct {
	id    string
	title string
	fn    experimentFunc
}{
	{"fig2", "NVM latency and bandwidth vs queue depth (4 KB random reads)", (*Runner).runFig2},
	{"table1", "Characterization of the user embedding tables", (*Runner).runTable1},
	{"fig3", "Hit rate curves of the top-4 embedding tables", (*Runner).runFig3},
	{"fig4", "Access histograms of the top-4 embedding tables", (*Runner).runFig4},
	{"fig5", "Latency vs application throughput: baseline vs 100% effective bandwidth", (*Runner).runFig5},
	{"fig6", "Effective bandwidth increase vs number of K-means clusters", (*Runner).runFig6},
	{"fig7", "Partitioner runtime: K-means, two-stage K-means, SHP", (*Runner).runFig7},
	{"fig8", "Effective bandwidth increase vs recursive K-means sub-clusters", (*Runner).runFig8},
	{"fig9", "Effective bandwidth increase per table using SHP (unlimited cache model)", (*Runner).runFig9},
	{"fig10", "Naive prefetch admission with a limited cache: partitioned vs original", (*Runner).runFig10},
	{"fig11", "Prefetch insertion position, shadow-cache admission, and their combination", (*Runner).runFig11},
	{"fig12", "Access-threshold admission for prefetched vectors", (*Runner).runFig12},
	{"table2", "Miniature-cache threshold selection vs sampling rate (table 2)", (*Runner).runTable2},
	{"fig13", "End-to-end effective bandwidth increase vs total cache size", (*Runner).runFig13},
	{"fig14", "End-to-end effective bandwidth increase vs miniature-cache sampling rate", (*Runner).runFig14},
	{"fig15", "End-to-end effective bandwidth increase vs SHP training set size", (*Runner).runFig15},
	{"fig16", "End-to-end effective bandwidth increase vs embedding vector size", (*Runner).runFig16},
	{"ablation-shp", "Ablation: SHP refinement iterations", (*Runner).runAblationSHP},
	{"ablation-admission", "Ablation: prefetch admission policy family", (*Runner).runAblationAdmission},
	{"ablation-mrc", "Ablation: exact vs sampled stack distance computation", (*Runner).runAblationMRC},
}

// IDs lists the available experiment IDs in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Titles maps experiment IDs to their one-line descriptions.
func Titles() map[string]string {
	m := make(map[string]string, len(registry))
	for _, e := range registry {
		m[e.id] = e.title
	}
	return m
}

// Run executes one experiment by ID.
func (r *Runner) Run(id string) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			start := time.Now()
			tbl, err := e.fn(r)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", id, err)
			}
			tbl.ID = e.id
			if tbl.Title == "" {
				tbl.Title = e.title
			}
			tbl.Elapsed = time.Since(start)
			return tbl, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}

// pct formats a ratio as a signed percentage.
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", x*100) }

// f2 formats a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// f1 formats a float with one decimal.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// i formats an int.
func itoa(x int) string { return fmt.Sprintf("%d", x) }
