package nvm

import (
	"math/rand"
	"sync"

	"bandana/internal/metrics"
)

// FioResult is one row of a Fio-style random-read benchmark (the paper's
// Figure 2): the latency and bandwidth observed at a given queue depth.
type FioResult struct {
	QueueDepth    int
	Jobs          int
	Ops           int64
	MeanLatencyUS float64
	P99LatencyUS  float64
	BandwidthGBs  float64
}

// FioConfig configures RunFio.
type FioConfig struct {
	// Jobs is the number of concurrent workers (the paper uses 4).
	Jobs int
	// QueueDepth is the number of outstanding requests per job.
	QueueDepth int
	// OpsPerWorker is how many 4 KB random reads each outstanding slot
	// issues.
	OpsPerWorker int
	// Seed seeds the random block selection.
	Seed int64
}

// RunFio replays a Fio-like 4 KB random-read workload against the device:
// Jobs*QueueDepth worker goroutines each issue OpsPerWorker back-to-back
// reads of random blocks. It reports the measured latency distribution and
// the bandwidth implied by the calibrated model at this load.
func RunFio(d *Device, cfg FioConfig) FioResult {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 200
	}
	workers := cfg.Jobs * cfg.QueueDepth
	hist := metrics.NewLatencyHistogram()
	var wg sync.WaitGroup
	var opsTotal metrics.Counter
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, BlockSize)
			for i := 0; i < cfg.OpsPerWorker; i++ {
				idx := rng.Intn(d.NumBlocks())
				lat, err := d.ReadBlockQD(idx, buf, cfg.QueueDepth)
				if err != nil {
					return
				}
				hist.Observe(lat)
				opsTotal.Inc()
			}
		}(cfg.Seed + int64(w))
	}
	wg.Wait()

	// Bandwidth comes from the calibrated model at this queue depth: the
	// measured sampler converges to the model's latency, and the model's
	// bandwidth column is what the paper reports for the same experiment.
	qd := float64(cfg.QueueDepth)
	return FioResult{
		QueueDepth:    cfg.QueueDepth,
		Jobs:          cfg.Jobs,
		Ops:           opsTotal.Value(),
		MeanLatencyUS: hist.Mean(),
		P99LatencyUS:  hist.P99(),
		BandwidthGBs:  d.Model().BandwidthGBs(qd),
	}
}

// QueueDepthSweep runs RunFio for each queue depth and returns one result
// per depth — the rows of Figure 2.
func QueueDepthSweep(d *Device, jobs int, depths []int, opsPerWorker int, seed int64) []FioResult {
	results := make([]FioResult, 0, len(depths))
	for _, qd := range depths {
		results = append(results, RunFio(d, FioConfig{
			Jobs:         jobs,
			QueueDepth:   qd,
			OpsPerWorker: opsPerWorker,
			Seed:         seed + int64(qd)*1000,
		}))
	}
	return results
}

// ThroughputLatencyPoint is one point of the paper's Figure 5: the mean and
// P99 device latency observed when the application requests data at a given
// useful throughput, under a given effective-bandwidth fraction.
type ThroughputLatencyPoint struct {
	// AppThroughputMBs is the application-visible useful data rate.
	AppThroughputMBs float64
	MeanLatencyUS    float64
	P99LatencyUS     float64
	// Saturated marks points beyond the device's capability.
	Saturated bool
}

// ThroughputLatencyCurve evaluates the device model along a sweep of
// application throughputs. effectiveFraction is the fraction of each device
// block read that the application actually uses: 1.0 for 4 KB reads (the
// "100% effective bandwidth" line of Figure 5) and vectorBytes/BlockSize for
// the baseline policy (≈ 0.031 for 128 B vectors).
func ThroughputLatencyCurve(m *PerformanceModel, effectiveFraction float64, appThroughputsMBs []float64) []ThroughputLatencyPoint {
	if effectiveFraction <= 0 {
		effectiveFraction = 1
	}
	if effectiveFraction > 1 {
		effectiveFraction = 1
	}
	out := make([]ThroughputLatencyPoint, 0, len(appThroughputsMBs))
	for _, app := range appThroughputsMBs {
		deviceGBs := app / 1000.0 / effectiveFraction
		mean, p99 := m.LoadLatency(deviceGBs)
		p := ThroughputLatencyPoint{AppThroughputMBs: app, MeanLatencyUS: mean, P99LatencyUS: p99}
		if deviceGBs >= m.MaxBandwidthGBs() {
			p.Saturated = true
		}
		out = append(out, p)
	}
	return out
}
