package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.1, 1}, {0.11, 2},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestWindowsSplitByCompletionTime(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{done: 10 * ms, latency: 100 * time.Microsecond, vectors: 10},
		{done: 90 * ms, latency: 300 * time.Microsecond, vectors: 30},
		{done: 50 * ms, latency: 200 * time.Microsecond, vectors: 20},
		{done: 60 * ms, latency: 900 * time.Microsecond, update: true},
		{done: 150 * ms, latency: 400 * time.Microsecond, vectors: 5},
		{done: 250 * ms, latency: time.Second, vectors: 1000}, // past the last window
	}
	ws := windows(samples, 100*ms, 2)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	w0 := ws[0]
	if w0.Lookups != 3 || w0.Updates != 1 {
		t.Errorf("window 0: %d lookups, %d updates, want 3 and 1", w0.Lookups, w0.Updates)
	}
	if w0.VectorsPerS != 600 {
		t.Errorf("window 0: %v vectors/s, want 60 vectors / 0.1 s = 600", w0.VectorsPerS)
	}
	if w0.P50US != 200 || w0.P95US != 300 || w0.P99US != 300 || w0.UpdP50US != 900 {
		t.Errorf("window 0: p50 %v p99 %v update p50 %v, want 200, 300, 900", w0.P50US, w0.P99US, w0.UpdP50US)
	}
	if ws[1].Lookups != 1 || ws[1].VectorsPerS != 50 {
		t.Errorf("window 1: %+v, want 1 lookup at 50 vectors/s", ws[1])
	}
}

// A stall that lands in one window must not move the reported value.
func TestWindowMedianIgnoresOneBadWindow(t *testing.T) {
	ws := []windowStat{
		{Lookups: 10, P99US: 100}, {Lookups: 10, P99US: 110}, {Lookups: 10, P99US: 90000},
		{Lookups: 10, P99US: 105}, {Lookups: 0, P99US: 0}, {Lookups: 10, P99US: 95},
	}
	got := windowMedian(ws, func(w windowStat) float64 { return w.P99US }, hasLookups)
	if got != 105 {
		t.Errorf("window median = %v, want 105 (empty window skipped, stalled window outvoted)", got)
	}
	if got := windowMedian(ws, func(w windowStat) float64 { return w.UpdP50US }, hasUpdates); got != 0 {
		t.Errorf("window median with no window kept = %v, want 0", got)
	}
}
