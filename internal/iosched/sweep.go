package iosched

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bandana/internal/nvm"
)

// SweepResult is one row of a miss-path queue-depth sweep: the batching and
// throughput the scheduler achieved at one target queue depth.
type SweepResult struct {
	TargetQueueDepth int     `json:"targetQueueDepth"`
	Workers          int     `json:"workers"`
	Ops              int64   `json:"ops"`
	DeviceReads      int64   `json:"deviceReads"`
	Batches          int64   `json:"batches"`
	AvgBatchSize     float64 `json:"avgBatchSize"`
	Coalesced        int64   `json:"coalesced"`
	// MeanBatchLatencyUS is the mean simulated completion latency of one
	// dispatched batch (SimBusyUS / Batches).
	MeanBatchLatencyUS float64 `json:"meanBatchLatencyUS"`
	// SimThroughputGBs is the miss-path read throughput in simulated device
	// time: bytes actually read divided by the accumulated simulated busy
	// time. This is the number the paper's Figure 2 insight predicts should
	// grow with queue depth.
	SimThroughputGBs float64 `json:"simThroughputGBs"`
}

// DefaultSweepDepths are the target queue depths measured by a sweep.
var DefaultSweepDepths = []int{1, 4, 8, 16, 32}

// SweepOptions configures MissPathSweep.
type SweepOptions struct {
	// Depths are the target queue depths to measure (DefaultSweepDepths
	// when nil).
	Depths []int
	// Workers is the number of concurrent miss streams (0 = enough to keep
	// the deepest batch full: 2x the largest depth, at least 32).
	Workers int
	// OpsPerWorker is the number of reads each worker issues (0 = 100).
	OpsPerWorker int
	// Window is the scheduler accumulation window (0 = 2ms, generous so
	// batches fill deterministically rather than depending on timing).
	Window time.Duration
	// Seed drives the random block choice.
	Seed int64
}

// MissPathSweep measures scheduler-mediated random-read throughput at each
// target queue depth: Workers goroutines each issue OpsPerWorker
// submit-and-wait demand reads of random blocks — the shape of concurrent
// cache misses — and the throughput is computed from the simulated device
// busy time. A fresh scheduler is used per depth so counters are isolated.
func MissPathSweep(device *nvm.Device, opts SweepOptions) ([]SweepResult, error) {
	depths := opts.Depths
	if len(depths) == 0 {
		depths = DefaultSweepDepths
	}
	maxDepth := 0
	for _, d := range depths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 2 * maxDepth
		if workers < 32 {
			workers = 32
		}
	}
	ops := opts.OpsPerWorker
	if ops <= 0 {
		ops = 100
	}
	window := opts.Window
	if window == 0 {
		window = 2 * time.Millisecond
	}

	results := make([]SweepResult, 0, len(depths))
	for _, depth := range depths {
		sched, err := New(device, Config{
			QueueDepth: depth,
			Window:     window,
		})
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				buf := make([]byte, nvm.BlockSize)
				for i := 0; i < ops; i++ {
					if _, err := sched.ReadBlock(rng.Intn(device.NumBlocks()), buf, Demand, 0); err != nil {
						errCh <- err
						return
					}
				}
			}(opts.Seed + int64(depth)*100003 + int64(w))
		}
		wg.Wait()
		st := sched.Stats()
		if err := sched.Close(); err != nil {
			return nil, err
		}
		select {
		case err := <-errCh:
			return nil, fmt.Errorf("iosched: sweep at depth %d: %w", depth, err)
		default:
		}
		res := SweepResult{
			TargetQueueDepth: depth,
			Workers:          workers,
			Ops:              st.DemandReads,
			DeviceReads:      st.DeviceReads,
			Batches:          st.Batches,
			AvgBatchSize:     st.AvgBatchSize,
			Coalesced:        st.Coalesced,
		}
		if st.Batches > 0 {
			res.MeanBatchLatencyUS = st.SimBusyUS / float64(st.Batches)
		}
		if st.SimBusyUS > 0 {
			res.SimThroughputGBs = float64(st.DeviceReads) * nvm.BlockSize / st.SimBusyUS / 1000
		}
		results = append(results, res)
	}
	return results, nil
}
