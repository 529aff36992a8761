package nvm

import (
	"testing"
)

// TestBatchCounters pins the read-batch accounting: single reads count as
// batches of one, batched reads as one batch of N, and the average and
// high-water queue depth follow.
func TestBatchCounters(t *testing.T) {
	d := NewDevice(DeviceConfig{NumBlocks: 64, Seed: 1})
	defer d.Close()
	buf := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if _, err := d.ReadBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]byte, 5*BlockSize)
	if _, err := d.ReadBlocks([]int{1, 2, 3, 4, 5}, batch); err != nil {
		t.Fatal(err)
	}

	st := d.Stats()
	if st.BlocksRead != 8 || st.ReadBatches != 4 {
		t.Fatalf("blocksRead=%d readBatches=%d, want 8/4", st.BlocksRead, st.ReadBatches)
	}
	if st.AvgReadBatch != 2 {
		t.Fatalf("avgReadBatch=%v, want 2", st.AvgReadBatch)
	}
	if st.MaxQueueDepth < 5 {
		t.Fatalf("maxQueueDepth=%d, want >= 5 (batch of 5 outstanding)", st.MaxQueueDepth)
	}
	if st.ReadsSubmitted != 8 {
		t.Fatalf("readsSubmitted=%d, want 8 with no coalescing", st.ReadsSubmitted)
	}

	d.NoteCoalescedRead()
	d.NoteCoalescedRead()
	st = d.Stats()
	if st.CoalescedReads != 2 || st.ReadsSubmitted != 10 {
		t.Fatalf("coalesced=%d submitted=%d, want 2/10", st.CoalescedReads, st.ReadsSubmitted)
	}

	d.ResetStats()
	st = d.Stats()
	if st.ReadBatches != 0 || st.CoalescedReads != 0 || st.MaxQueueDepth != 0 || st.AvgReadBatch != 0 {
		t.Fatalf("counters survived reset: %+v", st)
	}
}

// TestBatchBufPool covers the pooled batch buffers used by the scheduler.
func TestBatchBufPool(t *testing.T) {
	b := GetBatchBuf(3)
	if len(*b) != 3*BlockSize {
		t.Fatalf("len %d", len(*b))
	}
	PutBatchBuf(b)
	b = GetBatchBuf(12)
	if len(*b) != 12*BlockSize {
		t.Fatalf("len %d after regrow", len(*b))
	}
	PutBatchBuf(b)
	// Size classes of 8, 32 and 128 blocks; anything larger is a one-off.
	for _, c := range []struct{ blocks, capBlocks int }{{1, 8}, {8, 8}, {9, 32}, {17, 32}, {33, 128}, {128, 128}, {129, 129}} {
		b := GetBatchBuf(c.blocks)
		if len(*b) != c.blocks*BlockSize || cap(*b) != c.capBlocks*BlockSize {
			t.Fatalf("GetBatchBuf(%d): len %d cap %d blocks, want cap %d", c.blocks, len(*b)/BlockSize, cap(*b)/BlockSize, c.capBlocks)
		}
		PutBatchBuf(b)
	}
}
