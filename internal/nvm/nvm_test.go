package nvm

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemStoreReadWrite(t *testing.T) {
	s := NewMemStore(8)
	if s.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d", s.NumBlocks())
	}
	src := make([]byte, BlockSize)
	for i := range src {
		src[i] = byte(i)
	}
	if err := s.WriteBlock(3, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := s.ReadBlock(3, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

func TestMemStorePartialWriteZeroFills(t *testing.T) {
	s := NewMemStore(2)
	full := make([]byte, BlockSize)
	for i := range full {
		full[i] = 0xFF
	}
	s.WriteBlock(0, full)
	s.WriteBlock(0, []byte{1, 2, 3})
	dst := make([]byte, BlockSize)
	s.ReadBlock(0, dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("prefix lost: %v", dst[:4])
	}
	for i := 3; i < BlockSize; i++ {
		if dst[i] != 0 {
			t.Fatalf("byte %d not zeroed after partial write", i)
		}
	}
}

func TestMemStoreBoundsErrors(t *testing.T) {
	s := NewMemStore(2)
	buf := make([]byte, BlockSize)
	if err := s.ReadBlock(-1, buf); err == nil {
		t.Fatal("expected error for negative index")
	}
	if err := s.ReadBlock(2, buf); err == nil {
		t.Fatal("expected error for index beyond capacity")
	}
	if err := s.ReadBlock(0, make([]byte, 10)); err == nil {
		t.Fatal("expected error for short destination")
	}
	if err := s.WriteBlock(5, buf); err == nil {
		t.Fatal("expected error for out of range write")
	}
	if err := s.WriteBlock(0, make([]byte, BlockSize+1)); err == nil {
		t.Fatal("expected error for oversized write")
	}
}

func TestMemStorePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMemStore(0)
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nvm.dat")
	s, err := NewFileStore(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := make([]byte, BlockSize)
	copy(src, []byte("hello nvm"))
	if err := s.WriteBlock(2, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	if err := s.ReadBlock(2, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst[:9]) != "hello nvm" {
		t.Fatalf("got %q", dst[:9])
	}
	// Superblock + 4 data blocks.
	want := int64(1+4) * BlockSize
	if fi, err := os.Stat(path); err != nil || fi.Size() != want {
		t.Fatalf("file size = %v err %v, want %d", fi, err, want)
	}
	if err := s.ReadBlock(9, dst); err == nil {
		t.Fatal("expected range error")
	}
}

func TestFileStoreInvalid(t *testing.T) {
	if _, err := NewFileStore(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("expected error for zero blocks")
	}
	if _, err := NewFileStore(filepath.Join(t.TempDir(), "nodir", "deep", "x"), 1); err == nil {
		t.Fatal("expected error for bad path")
	}
}

func TestModelCalibrationMonotonicity(t *testing.T) {
	m := NewPerformanceModel(nil)
	prevLat, prevBW := 0.0, 0.0
	for _, qd := range []float64{1, 1.5, 2, 3, 4, 6, 8, 16} {
		lat := m.MeanLatencyUS(qd)
		bw := m.BandwidthGBs(qd)
		if lat < prevLat {
			t.Fatalf("latency not monotonic at qd %.1f: %.2f < %.2f", qd, lat, prevLat)
		}
		if bw < prevBW {
			t.Fatalf("bandwidth not monotonic at qd %.1f", qd)
		}
		if p99 := m.P99LatencyUS(qd); p99 < lat {
			t.Fatalf("p99 %.2f below mean %.2f at qd %.1f", p99, lat, qd)
		}
		prevLat, prevBW = lat, bw
	}
	// Saturation: beyond the last calibration point values stay flat.
	if m.BandwidthGBs(64) != m.MaxBandwidthGBs() {
		t.Fatalf("bandwidth should saturate at max")
	}
	if m.MeanLatencyUS(0.2) != m.MeanLatencyUS(1) {
		t.Fatalf("queue depth below 1 should clamp")
	}
}

func TestModelMatchesPaperShape(t *testing.T) {
	m := NewPerformanceModel(nil)
	// The paper's headline numbers: ~2.3 GB/s at QD 8, >30x below DRAM's
	// ~75 GB/s, and latency in the tens of microseconds.
	if bw := m.BandwidthGBs(8); math.Abs(bw-2.3) > 0.2 {
		t.Fatalf("QD8 bandwidth = %.2f, want ~2.3", bw)
	}
	if 75.0/m.MaxBandwidthGBs() < 30 {
		t.Fatalf("DRAM/NVM bandwidth ratio should exceed 30x")
	}
	if lat := m.MeanLatencyUS(1); lat < 5 || lat > 20 {
		t.Fatalf("unloaded latency = %.1f us, want ~10", lat)
	}
}

func TestLoadLatencyHockeyStick(t *testing.T) {
	m := NewPerformanceModel(nil)
	low, _ := m.LoadLatency(0.1)
	mid, _ := m.LoadLatency(1.5)
	high, p99High := m.LoadLatency(2.2)
	if !(low < mid && mid < high) {
		t.Fatalf("latency must grow with load: %.1f %.1f %.1f", low, mid, high)
	}
	if p99High < high {
		t.Fatalf("p99 below mean at high load")
	}
	if sat, _ := m.LoadLatency(5.0); !math.IsInf(sat, 1) {
		t.Fatalf("over-saturated load should return +Inf")
	}
	if unl, _ := m.LoadLatency(0); unl != m.MinLatencyUS() {
		t.Fatalf("zero load should return unloaded latency")
	}
}

func TestSampleLatencyMatchesModelMean(t *testing.T) {
	m := NewPerformanceModel(nil)
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += m.SampleLatencyUS(rng, 4)
	}
	mean := sum / n
	want := m.MeanLatencyUS(4)
	if math.Abs(mean-want)/want > 0.10 {
		t.Fatalf("sampled mean %.2f deviates from model mean %.2f", mean, want)
	}
	if s := m.SampleLatencyUS(rng, 0); s <= 0 {
		t.Fatalf("sample with zero inflight should clamp to 1, got %g", s)
	}
}

func TestCustomCalibrationSorted(t *testing.T) {
	m := NewPerformanceModel([]CalibrationPoint{
		{QueueDepth: 8, MeanLatencyUS: 40, P99LatencyUS: 90, BandwidthGBs: 2.0},
		{QueueDepth: 1, MeanLatencyUS: 8, P99LatencyUS: 12, BandwidthGBs: 0.5},
	})
	if m.MinLatencyUS() != 8 {
		t.Fatalf("points not sorted: min latency %.1f", m.MinLatencyUS())
	}
	if m.MaxBandwidthGBs() != 2.0 {
		t.Fatalf("max bandwidth %.1f", m.MaxBandwidthGBs())
	}
	if m.String() == "" {
		t.Fatal("empty string")
	}
}

func TestDeviceReadWriteAndStats(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 16, Seed: 1})
	defer d.Close()
	src := make([]byte, BlockSize)
	src[0] = 42
	if err := d.WriteBlock(5, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, BlockSize)
	lat, err := d.ReadBlock(5, dst)
	if err != nil {
		t.Fatal(err)
	}
	if dst[0] != 42 {
		t.Fatalf("data mismatch")
	}
	if lat <= 0 {
		t.Fatalf("latency should be positive")
	}
	s := d.Stats()
	if s.BlocksRead != 1 || s.BlocksWritten != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.BytesRead != BlockSize {
		t.Fatalf("bytes read %d", s.BytesRead)
	}
	if s.ReadLatency.Count != 1 {
		t.Fatalf("latency histogram not recorded")
	}
	if s.EnduranceDWPD != 30 {
		t.Fatalf("default endurance should be 30 DWPD")
	}
	d.ResetStats()
	if d.Stats().BlocksRead != 0 {
		t.Fatalf("reset failed")
	}
	if d.String() == "" {
		t.Fatal("empty device description")
	}
	if d.CapacityBytes() != 16*BlockSize {
		t.Fatalf("capacity %d", d.CapacityBytes())
	}
}

func TestDeviceReadErrorPropagates(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 2, Seed: 1})
	if _, err := d.ReadBlock(10, make([]byte, BlockSize)); err == nil {
		t.Fatal("expected error")
	}
	if d.Stats().BlocksRead != 0 {
		t.Fatalf("failed read must not be counted")
	}
}

// TestDeviceConcurrentReads: eight readers, single blocks and batches of
// two, each single read drawing its modelled latency without a shared lock;
// a batch draws none.
func TestDeviceConcurrentReads(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 64, Seed: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 2*BlockSize)
			for i := 0; i < 200; i++ {
				lat, err := d.ReadBlock(rng.Intn(64), buf)
				if err == nil && i%2 == 0 {
					err = d.ReadBlocks([]int{rng.Intn(64), rng.Intn(64)}, buf)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !(lat > 0) || math.IsInf(lat, 1) {
					t.Errorf("modelled latency %g", lat)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st := d.Stats(); st.BlocksRead != 8*(200+2*100) || st.ReadLatency.Count != 8*200 {
		t.Fatalf("blocks read = %d, modelled latencies = %d: want %d and one per ReadBlock (%d)",
			st.BlocksRead, st.ReadLatency.Count, 8*(200+2*100), 8*200)
	}
}

// TestDeviceLatencySequenceIsSeeded: a device read by one goroutine repeats
// its modelled latencies for a seed, and another seed gives other ones. A
// batched read in between takes no draw, so it does not shift the sequence.
// The draws behind them are standard normal.
func TestDeviceLatencySequenceIsSeeded(t *testing.T) {
	sequence := func(seed int64, batched bool) []float64 {
		d := NewDevice(DeviceConfig{NumBlocks: 16, Seed: seed})
		buf := make([]byte, 4*BlockSize)
		var lats []float64
		for i := 0; i < 50; i++ {
			lat, err := d.ReadBlock(i%16, buf)
			if err != nil {
				t.Fatal(err)
			}
			lats = append(lats, lat)
			if batched {
				before := d.noise.draws.Load()
				if err := d.ReadBlocks([]int{1, 5, 9, i % 16}, buf); err != nil {
					t.Fatal(err)
				}
				if d.noise.draws.Load() != before {
					t.Fatal("a batched read took a modelled-latency draw")
				}
			}
		}
		return lats
	}
	a, b, c := sequence(7, false), sequence(7, true), sequence(8, false)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 read %d: latency %g, then %g", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 7 and 8 agree on %d of %d latencies", same, len(a))
	}

	src := normalSource{seed: 1}
	const n = 200000
	var sum, sumSq float64
	for k := src.take(n); k < n; k++ {
		z := src.at(k)
		sum += z
		sumSq += z * z
	}
	if mean, variance := sum/n, sumSq/n-(sum/n)*(sum/n); math.Abs(mean) > 0.01 || math.Abs(variance-1) > 0.02 {
		t.Fatalf("draws have mean %.4f, variance %.4f; want 0 and 1", mean, variance)
	}
}

func TestDriveWritesAccounting(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 4, Seed: 1, EnduranceDWPD: 10})
	buf := make([]byte, BlockSize)
	for i := 0; i < 8; i++ {
		d.WriteBlock(i%4, buf)
	}
	s := d.Stats()
	if math.Abs(s.DriveWrites-2.0) > 1e-9 {
		t.Fatalf("drive writes = %g, want 2", s.DriveWrites)
	}
	if s.EnduranceDWPD != 10 {
		t.Fatalf("endurance = %g", s.EnduranceDWPD)
	}
}

func TestRunFioProducesReasonableRow(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 1024, Seed: 3})
	res := RunFio(d, FioConfig{Jobs: 2, QueueDepth: 4, OpsPerWorker: 100, Seed: 9})
	if res.Ops != 2*4*100 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.MeanLatencyUS <= 0 || res.P99LatencyUS < res.MeanLatencyUS {
		t.Fatalf("latency stats implausible: %+v", res)
	}
	if res.BandwidthGBs != d.Model().BandwidthGBs(4) {
		t.Fatalf("bandwidth should come from the calibrated model")
	}
}

func TestRunFioDefaults(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 128, Seed: 3})
	res := RunFio(d, FioConfig{})
	if res.Jobs != 4 || res.QueueDepth != 1 {
		t.Fatalf("defaults not applied: %+v", res)
	}
}

func TestQueueDepthSweepMonotoneBandwidth(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 1024, Seed: 4})
	rows := QueueDepthSweep(d, 4, []int{1, 2, 4, 8}, 50, 7)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].BandwidthGBs < rows[i-1].BandwidthGBs {
			t.Fatalf("bandwidth should not decrease with queue depth")
		}
		if rows[i].MeanLatencyUS < rows[i-1].MeanLatencyUS*0.8 {
			t.Fatalf("latency should grow (roughly) with queue depth")
		}
	}
	// Figure 2's point, strictly: depth 8 buys bandwidth over depth 1.
	if last := rows[len(rows)-1]; last.BandwidthGBs <= rows[0].BandwidthGBs {
		t.Fatalf("QD8 bandwidth %.3f GB/s not above QD1 %.3f GB/s", last.BandwidthGBs, rows[0].BandwidthGBs)
	}
}

func TestThroughputLatencyCurveBaselineVsFull(t *testing.T) {
	m := NewPerformanceModel(nil)
	sweep := []float64{10, 50, 100, 500, 1000, 2000, 4000}
	baseline := ThroughputLatencyCurve(m, 128.0/BlockSize, sweep)
	full := ThroughputLatencyCurve(m, 1.0, sweep)
	if len(baseline) != len(sweep) || len(full) != len(sweep) {
		t.Fatalf("curve lengths wrong")
	}
	// The baseline saturates at ~3% of 2.3 GB/s ≈ 72 MB/s of useful data,
	// so by 100 MB/s it must be saturated while the 4 KB curve is healthy.
	if !baseline[2].Saturated {
		t.Fatalf("baseline should be saturated at 100 MB/s")
	}
	if full[2].Saturated {
		t.Fatalf("100%% effective bandwidth curve should not be saturated at 100 MB/s")
	}
	// At low load the two have comparable latency; where both are defined
	// the baseline is always >= the full-read curve.
	for i := range sweep {
		if !baseline[i].Saturated && baseline[i].MeanLatencyUS < full[i].MeanLatencyUS {
			t.Fatalf("baseline latency below 4KB-read latency at %v MB/s", sweep[i])
		}
	}
	// Full curve must saturate eventually too (2.3 GB/s < 4 GB/s).
	if !full[len(full)-1].Saturated {
		t.Fatalf("full curve should saturate at 4 GB/s")
	}
}

func TestThroughputLatencyCurveClampsFraction(t *testing.T) {
	m := NewPerformanceModel(nil)
	pts := ThroughputLatencyCurve(m, 0, []float64{10})
	if pts[0].Saturated {
		t.Fatalf("fraction 0 should clamp to 1 (not saturate at 10 MB/s)")
	}
	pts = ThroughputLatencyCurve(m, 5, []float64{10})
	if pts[0].Saturated {
		t.Fatalf("fraction >1 should clamp to 1")
	}
}

func TestPropertyModelInterpolationWithinBounds(t *testing.T) {
	m := NewPerformanceModel(nil)
	prop := func(qdRaw uint8) bool {
		qd := 1 + float64(qdRaw%16)
		lat := m.MeanLatencyUS(qd)
		return lat >= m.MinLatencyUS()-1e-9 && lat <= m.MeanLatencyUS(8)+1e-9 || qd > 8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDeviceReadBlock(b *testing.B) {
	d := NewDevice(DeviceConfig{NumBlocks: 4096, Seed: 1})
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadBlock(i%4096, buf)
	}
}
