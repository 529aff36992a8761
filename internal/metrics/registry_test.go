package metrics

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Register("test_requests_total", "counter", "Total requests.", CounterSample(L("path", "/v1/lookup"), 42))
	h := NewLatencyHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	r.Register("test_latency_us", "summary", "Request latency.", SummarySamples(L("table", "t0"), h.Snapshot()))
	r.Register("test_empty", "gauge", "Never has samples.", nil)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total Total requests.",
		"# TYPE test_requests_total counter",
		`test_requests_total{path="/v1/lookup"} 42`,
		"# TYPE test_latency_us summary",
		`test_latency_us{table="t0",quantile="0"} 1` + "\n",
		`test_latency_us{table="t0",quantile="0.5"}`,
		`test_latency_us{table="t0",quantile="0.999"}`,
		`test_latency_us{table="t0",quantile="1"} 100` + "\n",
		`test_latency_us_sum{table="t0"} 5050`,
		`test_latency_us_count{table="t0"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "test_empty") {
		t.Errorf("family with no samples should be omitted:\n%s", out)
	}
	n, err := ValidateExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("own exposition does not validate: %v\n%s", err, out)
	}
	if n != 9 {
		t.Fatalf("sample count = %d, want 9", n)
	}
}

func TestRegistryEscaping(t *testing.T) {
	r := NewRegistry()
	r.Register("test_escape", "gauge", "help with \\ and\nnewline", CounterSample(L("k", "a\"b\\c\nd"), 1))
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, `{k="a\"b\\c\nd"}`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if _, err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("escaped exposition invalid: %v\n%s", err, out)
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad name", func() { r.Register("9bad", "counter", "", nil) })
	mustPanic("bad type", func() { r.Register("ok_name", "exotic", "", nil) })
	r.Register("dup_name", "counter", "", nil)
	mustPanic("dup", func() { r.Register("dup_name", "counter", "", nil) })
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Register("test_up", "gauge", "Always one.", CounterSample(nil, 1))
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	n, err := ValidateExposition(resp.Body)
	if err != nil || n != 1 {
		t.Fatalf("validate: n=%d err=%v", n, err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad value":        "foo bar\n",
		"bad name":         "9foo 1\n",
		"bad label name":   `foo{9k="v"} 1` + "\n",
		"unquoted label":   `foo{k=v} 1` + "\n",
		"unterminated":     `foo{k="v} 1` + "\n",
		"bad escape":       `foo{k="\q"} 1` + "\n",
		"duplicate series": "foo{a=\"1\"} 1\nfoo{a=\"1\"} 2\n",
		"bad type":         "# TYPE foo exotic\n",
		"conflicting type": "# TYPE foo counter\n# TYPE foo gauge\n",
		"bad timestamp":    "foo 1 notatime\n",
	}
	for name, in := range cases {
		if _, err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error for %q", name, in)
		}
	}
	good := "# random comment\n# TYPE foo counter\nfoo{a=\"x\",b=\"y\"} 1 1700000000000\nfoo{a=\"z\"} +Inf\nbar 3.5e-9\n"
	n, err := ValidateExposition(strings.NewReader(good))
	if err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
	if n != 3 {
		t.Fatalf("sample count = %d, want 3", n)
	}
}

// TestRegistryWriteJSON: the JSON view carries what the text exposition
// does, keyed the same way, including values JSON numbers cannot hold
// (written as the text format's strings) and a label value that needs
// escaping in both formats.
func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Register("test_values", "gauge", "Odd values.", []Sample{
		{Labels: L("v", "nan"), Value: math.NaN()},
		{Labels: L("v", "pinf"), Value: math.Inf(1)},
		{Labels: L("v", "ninf"), Value: math.Inf(-1)},
		{Labels: L("v", "big"), Value: 1e21},
		{Labels: L("v", "a\"b\\c\nd,e=f"), Value: -0.25},
	})
	r.Register("test_up", "gauge", "Unlabelled.", CounterSample(nil, 1))
	h := NewLatencyHistogram()
	h.Observe(3)
	r.Register("test_latency_us", "summary", "Latency.", SummarySamples(L("table", "t0"), h.Snapshot()))
	r.Register("test_empty", "gauge", "Never has samples.", nil)

	var js, text strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"v=\"nan\"":"NaN"`, `"v=\"pinf\"":"+Inf"`, `"v=\"ninf\"":"-Inf"`, `"v=\"big\"":1e+21`,
		`"test_up":{"":1}`, `"test_latency_us_count":{"table=\"t0\"":1}`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON view missing %s:\n%s", want, js.String())
		}
	}
	if !json.Valid([]byte(js.String())) {
		t.Fatalf("WriteJSON is not JSON:\n%s", js.String())
	}
	fromJSON, err := ParseJSON(strings.NewReader(js.String()))
	if err != nil {
		t.Fatalf("ParseJSON: %v\n%s", err, js.String())
	}
	fromText, err := ParseExposition(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, text.String())
	}
	if got := fromJSON["test_values"][`v="a\"b\\c\nd,e=f"`]; got != -0.25 {
		t.Errorf("escaped label value reads %v from the JSON view, want -0.25", got)
	}
	if _, ok := fromJSON["test_empty"]; ok {
		t.Error("family with no samples should be omitted")
	}
	if len(fromJSON) != len(fromText) {
		t.Fatalf("JSON view has %d series, text %d", len(fromJSON), len(fromText))
	}
	for name, series := range fromText {
		if len(fromJSON[name]) != len(series) {
			t.Errorf("%s: JSON view has %d samples, text %d", name, len(fromJSON[name]), len(series))
		}
		for labels, want := range series {
			got, ok := fromJSON[name][labels]
			if !ok || !(got == want || math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s{%s}: JSON view %v (present %v), text %v", name, labels, got, ok, want)
			}
		}
	}
}
