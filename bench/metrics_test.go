package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMetricDefsAreValid(t *testing.T) {
	if err := validateDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the contract allows 1-16 and 1-128", len(endToEnd), len(perLayer))
	}
	for _, bad := range []metricDef{
		{"has space", "us", "lower", 0},
		{"", "us", "lower", 0},
		{".leading", "us", "lower", 0},
		{"slash/name", "us", "lower", 0},
		{strings.Repeat("x", 65), "us", "lower", 0},
		{"ok", "micro seconds", "lower", 0},
		{"ok", "", "lower", 0},
		{"ok", "us", "smaller", 0},
		{"ok", "us", "lower", 0.3},
	} {
		if err := validateDefs([]metricDef{bad}); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if err := validateDefs([]metricDef{{"a.b-c_1", "1/s", "higher", 0.25}}); err != nil {
		t.Errorf("valid definition rejected: %v", err)
	}
	if err := validateDefs([]metricDef{{"x", "s", "lower", 0}}, []metricDef{{"x", "s", "lower", 0}}); err == nil {
		t.Error("a name used twice accepted")
	}
}

func TestReportRejectsUndeclaredMetric(t *testing.T) {
	r := newReport(endToEnd)
	r.set("setup_s", 1.5)
	if got := r.metrics()["setup_s"]; got.Value != 1.5 || got.Unit != "s" {
		t.Errorf("setup_s rendered as %+v", got)
	}
	if len(r.metrics()) != len(endToEnd) {
		t.Errorf("%d metrics rendered, want every declared one (%d)", len(r.metrics()), len(endToEnd))
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	r.set("no_such_metric", 1)
}

// BENCHMARK.json and the harness must list the same workloads and metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], the harness %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s %s: bound differs from the harness's %v", kind, d.Name, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	hasSetup := false
	for _, d := range endToEnd {
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
		if d.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", d.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// adapter.go is the only file that may name product identifiers.
func TestOnlyAdapterImportsProduct(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "adapter.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "bandana/") {
				t.Errorf("%s imports %s; only adapter.go may import the product", f, imp.Path.Value)
			}
		}
	}
}

func TestSetFieldToleratesAbsence(t *testing.T) {
	type inner struct {
		Enabled bool
		Depth   int
	}
	var cfg struct {
		Sched inner
		Name  string
	}
	if !setField(&cfg, "Sched.Enabled", true) || !cfg.Sched.Enabled {
		t.Error("existing bool field not set")
	}
	if !setField(&cfg, "Sched.Depth", 8) || cfg.Sched.Depth != 8 {
		t.Error("existing int field not set")
	}
	for _, path := range []string{"Sched.Gone", "Gone.Enabled", "Name.Enabled"} {
		if setField(&cfg, path, true) {
			t.Errorf("setField(%s) reported success", path)
		}
	}
	if setField(&cfg, "Sched.Depth", "eight") {
		t.Error("setField assigned a string to an int")
	}
}
