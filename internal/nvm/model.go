// Package nvm simulates a block-addressable Non-Volatile Memory device.
//
// The paper uses a 375 GB NVM block device (measured with Fio) whose key
// properties are:
//
//   - reads are served in 4 KB blocks: reading a 128 B embedding vector
//     costs a full block read, so the "effective bandwidth" of naive vector
//     reads is ~3% of the device bandwidth (§4.1, Figure 5);
//   - read bandwidth saturates around 2.3 GB/s at queue depth 8, more than
//     30x lower than DRAM, with mean/P99 latency growing with queue depth
//     (Figure 2);
//   - endurance is limited to roughly 30 drive writes per day.
//
// This package reproduces those externally visible properties with a
// calibrated performance model plus an actual in-memory (or file-backed)
// block store, so the rest of Bandana can be built and measured against it
// exactly as it would be against the hardware.
package nvm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// BlockSize is the native read granularity of the simulated device in bytes.
// All reads smaller than a block still occupy a full block of device
// bandwidth, which is the central constraint Bandana works around.
const BlockSize = 4096

// CalibrationPoint anchors the performance model at one queue depth. Values
// are taken from the paper's Figure 2 (4 concurrent jobs, libaio, 4 KB
// random reads on a 375 GB device).
type CalibrationPoint struct {
	QueueDepth    int
	MeanLatencyUS float64
	P99LatencyUS  float64
	BandwidthGBs  float64
}

// PerformanceModel converts device load into latency and bandwidth numbers.
// It is calibrated with a small set of measured points and interpolates
// between them; beyond the last point the device is saturated.
type PerformanceModel struct {
	points []CalibrationPoint
	// maxBandwidthGBs is the saturated read bandwidth.
	maxBandwidthGBs float64
	// minLatencyUS is the unloaded service latency.
	minLatencyUS float64
	p99Ratio     float64 // typical p99/mean ratio at low load
}

// DefaultCalibration mirrors the shape of the paper's Figure 2: latency
// grows from ~10 us to ~33 us mean (16 us to ~75 us P99) while bandwidth
// grows from ~0.6 GB/s to 2.3 GB/s as the queue depth goes 1 -> 8.
func DefaultCalibration() []CalibrationPoint {
	return []CalibrationPoint{
		{QueueDepth: 1, MeanLatencyUS: 10, P99LatencyUS: 16, BandwidthGBs: 0.60},
		{QueueDepth: 2, MeanLatencyUS: 12, P99LatencyUS: 24, BandwidthGBs: 1.15},
		{QueueDepth: 4, MeanLatencyUS: 18, P99LatencyUS: 42, BandwidthGBs: 1.80},
		{QueueDepth: 8, MeanLatencyUS: 33, P99LatencyUS: 75, BandwidthGBs: 2.30},
	}
}

// NewPerformanceModel builds a model from calibration points (sorted copies
// are kept). Passing nil uses DefaultCalibration.
func NewPerformanceModel(points []CalibrationPoint) *PerformanceModel {
	if len(points) == 0 {
		points = DefaultCalibration()
	}
	cp := append([]CalibrationPoint(nil), points...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].QueueDepth < cp[j].QueueDepth })
	m := &PerformanceModel{
		points:          cp,
		maxBandwidthGBs: cp[len(cp)-1].BandwidthGBs,
		minLatencyUS:    cp[0].MeanLatencyUS,
		p99Ratio:        cp[0].P99LatencyUS / cp[0].MeanLatencyUS,
	}
	return m
}

// MaxBandwidthGBs returns the saturated device read bandwidth in GB/s.
func (m *PerformanceModel) MaxBandwidthGBs() float64 { return m.maxBandwidthGBs }

// MinLatencyUS returns the unloaded mean read latency in microseconds.
func (m *PerformanceModel) MinLatencyUS() float64 { return m.minLatencyUS }

// interp interpolates a field across queue depth (log-linear in qd).
func (m *PerformanceModel) interp(qd float64, field func(CalibrationPoint) float64) float64 {
	pts := m.points
	if qd <= float64(pts[0].QueueDepth) {
		return field(pts[0])
	}
	last := pts[len(pts)-1]
	if qd >= float64(last.QueueDepth) {
		return field(last)
	}
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		if qd <= float64(hi.QueueDepth) {
			// Interpolate linearly in log2(queue depth), which matches the
			// doubling structure of the calibration points.
			t := (math.Log2(qd) - math.Log2(float64(lo.QueueDepth))) /
				(math.Log2(float64(hi.QueueDepth)) - math.Log2(float64(lo.QueueDepth)))
			return field(lo) + t*(field(hi)-field(lo))
		}
	}
	return field(last)
}

// MeanLatencyUS returns the mean 4 KB read latency at the given queue depth.
func (m *PerformanceModel) MeanLatencyUS(queueDepth float64) float64 {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return m.interp(queueDepth, func(p CalibrationPoint) float64 { return p.MeanLatencyUS })
}

// P99LatencyUS returns the P99 4 KB read latency at the given queue depth.
func (m *PerformanceModel) P99LatencyUS(queueDepth float64) float64 {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return m.interp(queueDepth, func(p CalibrationPoint) float64 { return p.P99LatencyUS })
}

// BandwidthGBs returns the sustained read bandwidth at the given queue
// depth.
func (m *PerformanceModel) BandwidthGBs(queueDepth float64) float64 {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return m.interp(queueDepth, func(p CalibrationPoint) float64 { return p.BandwidthGBs })
}

// LoadLatency models the open-loop latency of the device when the *device*
// is reading deviceGBs gigabytes per second (regardless of how much of that
// the application actually uses). As the load approaches the saturated
// bandwidth, queueing delay dominates and the latency grows without bound —
// the hockey-stick curves of Figure 5.
//
// It returns mean and P99 latencies in microseconds. A load at or above the
// device's maximum returns +Inf for both.
func (m *PerformanceModel) LoadLatency(deviceGBs float64) (meanUS, p99US float64) {
	if deviceGBs <= 0 {
		return m.minLatencyUS, m.minLatencyUS * m.p99Ratio
	}
	rho := deviceGBs / m.maxBandwidthGBs
	if rho >= 1 {
		return math.Inf(1), math.Inf(1)
	}
	// M/M/1-style scaling anchored at the unloaded latency; the P99 grows
	// faster than the mean, mirroring the measured curves.
	meanUS = m.minLatencyUS * (1 + rho/(1-rho))
	p99US = m.minLatencyUS * m.p99Ratio * (1 + 1.6*rho/(1-rho))
	return meanUS, p99US
}

// SampleLatencyUS draws one latency sample (in microseconds) for a read
// issued while `inflight` requests are outstanding. The sample follows a
// lognormal distribution whose mean and P99 match the calibrated model, so
// that latency histograms recorded by the Device have realistic tails.
func (m *PerformanceModel) SampleLatencyUS(rng *rand.Rand, inflight int) float64 {
	return m.latencyAtUS(rng.NormFloat64(), inflight)
}

// latencyAtUS is SampleLatencyUS given the standard normal draw z.
func (m *PerformanceModel) latencyAtUS(z float64, inflight int) float64 {
	if inflight < 1 {
		inflight = 1
	}
	mean := m.MeanLatencyUS(float64(inflight))
	p99 := m.P99LatencyUS(float64(inflight))
	if p99 <= mean {
		p99 = mean * 1.2
	}
	// Lognormal with E[X]=mean and P99[X]=p99:
	//   E[X] = exp(mu + sigma^2/2), P99 = exp(mu + 2.326*sigma)
	// Solve for sigma from the ratio.
	ratio := math.Log(p99 / mean)
	// sigma^2/2 - 2.326 sigma + ratio = 0  =>  sigma = 2.326 - sqrt(2.326^2 - 2*ratio)
	disc := 2.326*2.326 - 2*ratio
	var sigma float64
	if disc <= 0 {
		sigma = 2.326
	} else {
		sigma = 2.326 - math.Sqrt(disc)
	}
	if sigma < 0.01 {
		sigma = 0.01
	}
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*z)
}

// String summarises the model.
func (m *PerformanceModel) String() string {
	return fmt.Sprintf("nvm model: %.2f GB/s max read bandwidth, %.0f us unloaded latency, %d calibration points",
		m.maxBandwidthGBs, m.minLatencyUS, len(m.points))
}
