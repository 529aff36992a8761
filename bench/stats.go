package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation as the load generator saw it.
type sample struct {
	done    time.Duration // since the phase started, at completion
	latency time.Duration // closed loop: from the send; open loop: from the due time
	vectors int           // vectors returned; 0 for an update
	update  bool
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of an unordered slice (mean of the two middle values when even); 0
// for an empty one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowStat is what one window of a phase measured.
type windowStat struct {
	Lookups, Updates int
	VectorsPerS      float64
	P50US, P95US     float64 // lookup latency
	P99US            float64
	UpdP50US         float64
	UpdP99US         float64
}

// windows splits a phase's samples into n consecutive windows of the given
// length by completion time and summarises each. Operations that completed
// after the last window (stragglers past the deadline) are left out.
func windows(samples []sample, length time.Duration, n int) []windowStat {
	look := make([][]float64, n)
	upd := make([][]float64, n)
	vecs := make([]int, n)
	for _, s := range samples {
		w := int(s.done / length)
		if w < 0 || w >= n {
			continue
		}
		us := float64(s.latency) / float64(time.Microsecond)
		if s.update {
			upd[w] = append(upd[w], us)
		} else {
			look[w] = append(look[w], us)
			vecs[w] += s.vectors
		}
	}
	out := make([]windowStat, n)
	for w := range out {
		sort.Float64s(look[w])
		sort.Float64s(upd[w])
		out[w] = windowStat{
			Lookups:     len(look[w]),
			Updates:     len(upd[w]),
			VectorsPerS: float64(vecs[w]) / length.Seconds(),
			P50US:       percentile(look[w], 0.50),
			P95US:       percentile(look[w], 0.95),
			P99US:       percentile(look[w], 0.99),
			UpdP50US:    percentile(upd[w], 0.50),
			UpdP99US:    percentile(upd[w], 0.99),
		}
	}
	return out
}

// windowMedian is the median over windows of one per-window value. A rare
// stall lands in one window and moves that window's value a lot, the median
// over windows hardly at all, which is why every timing metric is reported
// this way. Windows for which keep is false (no samples of that kind) are
// skipped.
func windowMedian(ws []windowStat, value func(windowStat) float64, keep func(windowStat) bool) float64 {
	var v []float64
	for _, w := range ws {
		if keep(w) {
			v = append(v, value(w))
		}
	}
	return median(v)
}

func hasLookups(w windowStat) bool { return w.Lookups > 0 }
func hasUpdates(w windowStat) bool { return w.Updates > 0 }

// latenciesUS returns the ascending lookup (or update) latencies of a phase
// in microseconds.
func latenciesUS(samples []sample, updates bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.update == updates {
			out = append(out, float64(s.latency)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}
