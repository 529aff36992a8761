package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Label is one name=value pair attached to a Sample.
type Label struct {
	Key   string
	Value string
}

// L builds a label list from alternating key/value strings:
// L("table", "t0", "stage", "decode").
func L(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("metrics: L requires an even number of arguments")
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	return labels
}

// Sample is one exposition line belonging to a metric family: the family
// name plus Suffix (e.g. "_sum", "_count", or empty), the label pairs, and
// the value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

type family struct {
	name    string
	typ     string // counter | gauge | summary | untyped
	help    string
	samples []Sample
}

// Registry holds one scrape: metric families with their samples, rendered in
// the Prometheus text exposition format (version 0.0.4, WriteText) or as a
// JSON View (WriteJSON) without any external dependency. Families render in
// registration order, samples in the order they were registered. A registry
// is built per scrape from one read of each source, so its families agree
// with each other and both renderings of it carry the same samples.
type Registry struct {
	families []family
	byName   map[string]bool
}

// View is a scrape keyed by series — family name plus sample suffix — and
// then by the sample's canonical label string: its labels sorted by name,
// written as in the text format (`quantile="0.5",table="t0"`; "" when it has
// none). It is what WriteJSON renders, and what ParseExposition and
// ParseJSON read back.
type View map[string]map[string]float64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

// Register adds a metric family and its samples. typ must be one of
// "counter", "gauge", "summary", or "untyped". It panics on an invalid or
// duplicate name: those are wiring mistakes, not scrape-time conditions.
func (r *Registry) Register(name, typ, help string, samples []Sample) {
	if !validMetricName(name) {
		panic("metrics: invalid metric name " + name)
	}
	switch typ {
	case "counter", "gauge", "summary", "untyped":
	default:
		panic("metrics: invalid metric type " + typ)
	}
	if r.byName[name] {
		panic("metrics: duplicate metric name " + name)
	}
	r.byName[name] = true
	r.families = append(r.families, family{name: name, typ: typ, help: help, samples: samples})
}

// WriteText renders every family to w in the text exposition format.
// Families without samples are left out.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.families {
		if len(f.samples) == 0 {
			continue
		}
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range f.samples {
			b.WriteString(f.name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Key)
					b.WriteString(`="`)
					b.WriteString(escapeLabelValue(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatValue(s.Value))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry to w as a JSON View: an object per series,
// in registration order, mapping canonical label strings to values. Values
// JSON numbers cannot hold are the strings the text format writes: "NaN",
// "+Inf" and "-Inf". Families without samples are left out, as in WriteText.
func (r *Registry) WriteJSON(w io.Writer) error {
	b := []byte{'{'}
	for _, f := range r.families {
		var suffixes []string
		for _, s := range f.samples {
			if !slices.Contains(suffixes, s.Suffix) {
				suffixes = append(suffixes, s.Suffix)
			}
		}
		for _, suffix := range suffixes {
			if len(b) > 1 {
				b = append(b, ',')
			}
			b = appendJSONString(append(b, '\n'), f.name+suffix)
			b = append(b, ":{"...)
			first := true
			for _, s := range f.samples {
				if s.Suffix != suffix {
					continue
				}
				if !first {
					b = append(b, ',')
				}
				first = false
				b = append(appendJSONString(b, canonicalLabels(s.Labels)), ':')
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					b = appendJSONString(b, formatValue(s.Value))
				} else {
					b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
				}
			}
			b = append(b, '}')
		}
	}
	_, err := w.Write(append(b, "\n}\n"...))
	return err
}

func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(b, q...)
}

// ParseJSON reads a WriteJSON rendering back into a View.
func ParseJSON(r io.Reader) (View, error) {
	var raw map[string]map[string]any
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	v := make(View, len(raw))
	for name, series := range raw {
		v[name] = make(map[string]float64, len(series))
		for labels, x := range series {
			switch x := x.(type) {
			case float64:
				v[name][labels] = x
			case string:
				f, err := strconv.ParseFloat(x, 64)
				if err != nil {
					return nil, fmt.Errorf("%s{%s}: bad value %q", name, labels, x)
				}
				v[name][labels] = f
			default:
				return nil, fmt.Errorf("%s{%s}: value %v is neither a number nor a string", name, labels, x)
			}
		}
	}
	return v, nil
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if req.Method == http.MethodHead {
			return
		}
		if err := r.WriteText(w); err != nil {
			// Headers are already out; nothing useful left to do.
			return
		}
	})
}

// SummarySamples renders a histogram Snapshot as Prometheus summary samples:
// quantile series for p50/p90/p99/p999 plus _sum and _count, and the minimum
// and maximum as quantiles 0 and 1. The p50–p999 values carry the
// histogram's one-bucket overestimate, which is the documented accuracy of
// the underlying layout.
func SummarySamples(labels []Label, s Snapshot) []Sample {
	quantile := func(q string, v float64) Sample {
		ql := make([]Label, 0, len(labels)+1)
		ql = append(ql, labels...)
		ql = append(ql, Label{Key: "quantile", Value: q})
		return Sample{Labels: ql, Value: v}
	}
	return []Sample{
		quantile("0", s.Min),
		quantile("0.5", s.P50),
		quantile("0.9", s.P90),
		quantile("0.99", s.P99),
		quantile("0.999", s.P999),
		quantile("1", s.Max),
		{Suffix: "_sum", Labels: labels, Value: s.Mean * float64(s.Count)},
		{Suffix: "_count", Labels: labels, Value: float64(s.Count)},
	}
}

// CounterSample is shorthand for a single counter/gauge sample.
func CounterSample(labels []Label, v float64) []Sample {
	return []Sample{{Labels: labels, Value: v}}
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ValidateExposition parses a Prometheus text-format exposition (see
// ParseExposition) and returns the number of sample lines, or an error
// describing the first violation. It is used by the registry tests and by
// cmd/promcheck in CI.
func ValidateExposition(r io.Reader) (int, error) {
	v, err := ParseExposition(r)
	n := 0
	for _, series := range v {
		n += len(series)
	}
	return n, err
}

// ParseExposition parses a Prometheus text-format exposition into a View,
// checking line syntax, metric/label name validity, label-value escaping,
// value parseability, TYPE declarations, and duplicate series. On a
// violation it returns the samples before it and an error describing it.
func ParseExposition(r io.Reader) (View, error) {
	samples := make(View)
	data, err := io.ReadAll(r)
	if err != nil {
		return samples, err
	}
	types := make(map[string]string)
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				// Other comments are legal and ignored.
				continue
			}
			name := fields[2]
			if !validMetricName(name) {
				return samples, fmt.Errorf("line %d: invalid metric name %q in %s", lineNo, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return samples, fmt.Errorf("line %d: TYPE line missing type", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return samples, fmt.Errorf("line %d: invalid type %q", lineNo, typ)
				}
				if prev, ok := types[name]; ok && prev != typ {
					return samples, fmt.Errorf("line %d: conflicting TYPE for %s: %s then %s", lineNo, name, prev, typ)
				}
				types[name] = typ
			}
			continue
		}
		name, labels, rest, err := parseSampleLine(line)
		if err != nil {
			return samples, fmt.Errorf("line %d: %v", lineNo, err)
		}
		valueStr := rest
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			// Optional trailing timestamp.
			valueStr = rest[:i]
			ts := strings.TrimSpace(rest[i:])
			if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
				return samples, fmt.Errorf("line %d: bad timestamp %q", lineNo, ts)
			}
		}
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			return samples, fmt.Errorf("line %d: bad value %q", lineNo, valueStr)
		}
		key := canonicalLabels(labels)
		if _, dup := samples[name][key]; dup {
			return samples, fmt.Errorf("line %d: duplicate series %s{%s}", lineNo, name, key)
		}
		if samples[name] == nil {
			samples[name] = make(map[string]float64)
		}
		samples[name][key] = value
	}
	return samples, nil
}

// canonicalLabels is a View's key for a label set: the labels sorted by
// name, in the text format's syntax.
func canonicalLabels(labels []Label) string {
	cp := append([]Label(nil), labels...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	parts := make([]string, len(cp))
	for i, l := range cp {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return strings.Join(parts, ",")
}

// parseSampleLine splits `name{k="v",...} value [ts]` into its parts,
// unescaping label values.
func parseSampleLine(line string) (name string, labels []Label, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", nil, "", fmt.Errorf("no value on sample line")
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, "", fmt.Errorf("invalid metric name %q", name)
	}
	if line[i] != '{' {
		return name, nil, strings.TrimSpace(line[i:]), nil
	}
	pos := i + 1
	for {
		for pos < len(line) && (line[pos] == ',' || line[pos] == ' ') {
			pos++
		}
		if pos < len(line) && line[pos] == '}' {
			pos++
			break
		}
		eq := strings.IndexByte(line[pos:], '=')
		if eq < 0 {
			return "", nil, "", fmt.Errorf("label without '='")
		}
		key := line[pos : pos+eq]
		if !validLabelName(key) {
			return "", nil, "", fmt.Errorf("invalid label name %q", key)
		}
		pos += eq + 1
		if pos >= len(line) || line[pos] != '"' {
			return "", nil, "", fmt.Errorf("label value for %q not quoted", key)
		}
		pos++
		var val strings.Builder
		closed := false
		for pos < len(line) {
			c := line[pos]
			if c == '\\' {
				if pos+1 >= len(line) {
					return "", nil, "", fmt.Errorf("dangling escape in label value")
				}
				switch line[pos+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, "", fmt.Errorf("bad escape \\%c in label value", line[pos+1])
				}
				pos += 2
				continue
			}
			if c == '"' {
				closed = true
				pos++
				break
			}
			val.WriteByte(c)
			pos++
		}
		if !closed {
			return "", nil, "", fmt.Errorf("unterminated label value for %q", key)
		}
		labels = append(labels, Label{Key: key, Value: val.String()})
	}
	rest = strings.TrimSpace(line[pos:])
	if rest == "" {
		return "", nil, "", fmt.Errorf("no value after labels")
	}
	return name, labels, rest, nil
}
