package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quickRunner builds a runner at the smallest useful scale; it is shared by
// the tests in this file (the env caches the expensive artefacts).
var sharedRunner = NewRunner(QuickOptions())

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) < 17 {
		t.Fatalf("expected at least 17 experiments, got %d", len(ids))
	}
	titles := Titles()
	for _, id := range ids {
		if titles[id] == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
	// Every paper artefact must be present.
	for _, want := range []string{"fig2", "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "table2", "fig13", "fig14", "fig15", "fig16"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("experiment %s missing from registry", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := sharedRunner.Run("nosuch"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}, Notes: "note"}
	tbl.AddRow("1", "2")
	var buf bytes.Buffer
	tbl.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "note") || !strings.Contains(out, "bb") {
		t.Fatalf("format output missing pieces:\n%s", out)
	}
	empty := &Table{ID: "y", Title: "no columns"}
	empty.Format(&buf) // must not panic
}

// runAndCheck runs one experiment and performs basic sanity checks.
func runAndCheck(t *testing.T, id string, minRows int) *Table {
	t.Helper()
	tbl, err := sharedRunner.Run(id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) < minRows {
		t.Fatalf("%s: only %d rows (want >= %d)", id, len(tbl.Rows), minRows)
	}
	for ri, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s: row %d has %d cells for %d columns", id, ri, len(row), len(tbl.Columns))
		}
	}
	var buf bytes.Buffer
	tbl.Format(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s: empty formatted output", id)
	}
	return tbl
}

// parsePct converts "+12.3%" to 0.123.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse percentage %q: %v", s, err)
	}
	return v / 100
}

func TestFig2ShapeMatchesPaper(t *testing.T) {
	tbl := runAndCheck(t, "fig2", 4)
	// Bandwidth must grow monotonically with queue depth and reach ~2.3 GB/s.
	var prevBW float64
	for _, row := range tbl.Rows {
		bw, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if bw < prevBW {
			t.Fatalf("bandwidth decreased with queue depth")
		}
		prevBW = bw
	}
	if prevBW < 2.0 {
		t.Fatalf("saturated bandwidth %.2f too low", prevBW)
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	tbl := runAndCheck(t, "table1", 8)
	// Table 2 (row index 1) must have the highest lookup share; table 8 the
	// highest compulsory-miss ratio.
	share := func(row []string) float64 { return parsePct(t, row[3]) }
	miss := func(row []string) float64 { return parsePct(t, row[4]) }
	for i, row := range tbl.Rows {
		if i == 1 {
			continue
		}
		if share(tbl.Rows[1]) < share(row) {
			t.Fatalf("table 2 should have the largest lookup share")
		}
		if miss(tbl.Rows[7]) < miss(row) {
			t.Fatalf("table 8 should have the largest compulsory miss ratio")
		}
	}
}

func TestFig3HitRatesMonotone(t *testing.T) {
	tbl := runAndCheck(t, "fig3", 3)
	// Hit rate must not decrease as the cache grows (down the rows).
	for c := 1; c < len(tbl.Columns); c++ {
		prev := -1.0
		for _, row := range tbl.Rows {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v+1e-9 < prev {
				t.Fatalf("column %d: hit rate decreased with cache size", c)
			}
			prev = v
		}
	}
}

func TestFig5BaselineSaturatesFirst(t *testing.T) {
	tbl := runAndCheck(t, "fig5", 3)
	// The baseline column must contain at least one saturated entry while
	// the 4KB-read column still has finite latencies at the same rows.
	sawBaselineSat := false
	for _, row := range tbl.Rows {
		if row[1] == "sat" && row[3] != "sat" {
			sawBaselineSat = true
		}
	}
	if !sawBaselineSat {
		t.Fatal("baseline should saturate at throughputs the 4KB-read curve still sustains")
	}
}

func TestFig9SHPBeatsIdentityAndImprovesWithData(t *testing.T) {
	tbl := runAndCheck(t, "fig9", 2)
	for _, row := range tbl.Rows {
		identity := parsePct(t, row[1])
		last := parsePct(t, row[len(row)-1])
		if last < identity {
			t.Fatalf("SHP with full training should beat the identity layout (row %v)", row)
		}
	}
}

func TestFig12ThresholdGainsPositive(t *testing.T) {
	tbl := runAndCheck(t, "fig12", 2)
	// At least one threshold setting must deliver a positive gain on the
	// high-locality table 2.
	found := false
	for _, row := range tbl.Rows {
		for c := 1; c < len(row); c++ {
			if parsePct(t, row[c]) > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no threshold produced a positive effective bandwidth increase")
	}
}

func TestFig13EndToEndPositiveGains(t *testing.T) {
	tbl := runAndCheck(t, "fig13", 1)
	// At the largest total cache, the busiest table (table 2, column 2)
	// must show a positive gain.
	last := tbl.Rows[len(tbl.Rows)-1]
	if parsePct(t, last[2]) <= 0 {
		t.Fatalf("table 2 end-to-end gain should be positive at the largest cache, got %s", last[2])
	}
}

func TestRemainingExperimentsRun(t *testing.T) {
	// The remaining experiments are checked for basic shape only (they are
	// exercised in depth by `bandana run --all`).
	for id, minRows := range map[string]int{
		"fig4": 3, "fig6": 2, "fig7": 3, "fig8": 1, "fig10": 2, "fig11": 3,
		"table2": 2, "fig14": 2, "fig15": 2, "fig16": 2,
		"ablation-shp": 2, "ablation-admission": 4, "ablation-mrc": 2,
	} {
		runAndCheck(t, id, minRows)
	}
}
