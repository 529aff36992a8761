// Replica bootstrap and follow: stream a primary's snapshot into a local
// data dir (resumable, CRC-verified, chunk by chunk), open it read-only
// through the normal core.Open path, and keep following as the primary's
// snapshot seq advances — incrementally when possible, by re-sync otherwise.
//
// Following is two-tiered. While the replica's seq lies inside the primary's
// retained update-log window, Run tails /v1/replica/updates and applies the
// individual update records to its OPEN store (core.ApplyReplicatedUpdates):
// catching up after K updates transfers O(K · vecBytes), not O(image), and
// the served store is never swapped. Only when the window is gone — the seq
// was compacted away, a structural mutation (train, relayout) reset it, or
// the primary predates the endpoint — does the replica fall back to the full
// snapshot bootstrap path below.
//
// Layout under ReplicaOptions.DataDir:
//
//	incoming/            partial download (blocks.partial + meta.json);
//	                     survives kill -9 and is resumed by byte offset
//	snap-<seq>/          imported, immediately servable data dirs
//
// A download is verified three times over: every chunk against its own
// CRC-32C response header, the assembled image against the part CRC the
// first chunk advertised, and the import against the manifest's internal
// CRC — a torn or bit-rotten stream can produce a failed sync, never a
// serving replica with wrong bytes.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/core"
	"bandana/internal/datadir"
	"bandana/internal/metrics"
	"bandana/internal/nvm"
	"bandana/internal/server"
)

// crcTable is the Castagnoli table shared by every CRC-32C in the cluster
// tier (it matches the server's and core's snapshot checksums).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ReplicaOptions configures a replicating follower.
type ReplicaOptions struct {
	// PrimaryURL is the base URL of the node to follow, e.g.
	// "http://10.0.0.5:8080".
	PrimaryURL string
	// DataDir is the replica's local root; snapshots and partial downloads
	// live in subdirectories.
	DataDir string
	// Sync is the durability mode of the imported block files.
	Sync nvm.SyncMode
	// Direct opens the imported block files with O_DIRECT where the
	// filesystem supports it (see core.Config.Direct).
	Direct bool
	// PollInterval is how often Run checks the primary's snapshot seq.
	// Defaults to 2s.
	PollInterval time.Duration
	// ChunkBytes is the download chunk size. Defaults to 1 MB (the server
	// additionally caps chunks at its own limit).
	ChunkBytes int
	// HTTPClient overrides the HTTP client (tests inject failures here).
	HTTPClient *http.Client
}

func (o *ReplicaOptions) defaults() error {
	if o.PrimaryURL == "" {
		return fmt.Errorf("cluster: replica needs a primary URL")
	}
	if o.DataDir == "" {
		return fmt.Errorf("cluster: replica needs a data dir")
	}
	o.PrimaryURL = strings.TrimRight(o.PrimaryURL, "/")
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Second
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 1 << 20
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// ReplicaStats is a snapshot of the replica's sync state.
type ReplicaStats struct {
	ActiveSeq        uint64 `json:"activeSeq"`
	Syncs            int64  `json:"syncs"`
	BytesFetched     int64  `json:"bytesFetched"`
	LastResumeOffset int64  `json:"lastResumeOffset"`
	LastError        string `json:"lastError,omitempty"`
	// DeltaBatches/DeltaRecords/DeltaBytes describe the incremental path:
	// update batches applied to the open store without a snapshot re-sync.
	DeltaBatches int64 `json:"deltaBatches"`
	DeltaRecords int64 `json:"deltaRecords"`
	DeltaBytes   int64 `json:"deltaBytes"`
	// SyncRestarts counts full-snapshot syncs restarted because the
	// primary's seq advanced mid-download (the 409 path). SyncStalled is
	// set after several consecutive restarts — the replica keeps serving
	// its last good snapshot and keeps retrying with backoff, but it is
	// not converging.
	SyncRestarts int64 `json:"syncRestarts"`
	SyncStalled  bool  `json:"syncStalled"`
}

// Replica follows one primary. Create with NewReplica, then Bootstrap once
// and (optionally) Run in a goroutine to keep following.
type Replica struct {
	opts ReplicaOptions

	seq          atomic.Uint64
	syncs        metrics.Counter
	bytesFetched metrics.Counter
	resumeOff    atomic.Int64
	lastErr      atomic.Pointer[string]

	// store is the open store deltas are applied to (set by Bootstrap and
	// after every full re-sync). Run never closes it — server.SwapStore
	// owns the close-after-drain lifecycle.
	store        atomic.Pointer[core.Store]
	deltaBatches metrics.Counter
	deltaRecords metrics.Counter
	deltaBytes   metrics.Counter
	syncRestarts metrics.Counter
	syncStalled  atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// stalledThreshold is how many consecutive seq-advance restarts flip
// SyncStalled on; backoffCap bounds the exponential restart backoff.
const (
	stalledThreshold = 3
	backoffBase      = 100 * time.Millisecond
	backoffCap       = 5 * time.Second
)

// NewReplica validates the options and prepares the local directory tree.
func NewReplica(opts ReplicaOptions) (*Replica, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: replica data dir: %w", err)
	}
	return &Replica{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}, nil
}

// Stats reports the replica's sync state.
func (r *Replica) Stats() ReplicaStats {
	st := ReplicaStats{
		ActiveSeq:        r.seq.Load(),
		Syncs:            r.syncs.Value(),
		BytesFetched:     r.bytesFetched.Value(),
		LastResumeOffset: r.resumeOff.Load(),
		DeltaBatches:     r.deltaBatches.Value(),
		DeltaRecords:     r.deltaRecords.Value(),
		DeltaBytes:       r.deltaBytes.Value(),
		SyncRestarts:     r.syncRestarts.Value(),
		SyncStalled:      r.syncStalled.Load(),
	}
	if msg := r.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}

// ActiveSeq returns the seq of the snapshot the replica currently serves.
func (r *Replica) ActiveSeq() uint64 { return r.seq.Load() }

// seqChangedError reports that the primary's snapshot advanced mid-sync;
// the sync restarts against the new seq.
type seqChangedError struct{ newSeq uint64 }

func (e seqChangedError) Error() string {
	return fmt.Sprintf("cluster: primary snapshot seq advanced to %d mid-sync", e.newSeq)
}

// Bootstrap syncs the primary's current snapshot (resuming any partial
// download a previous process left behind) and opens it as a read-only
// store. The caller owns the returned store until it hands it to
// server.SwapStore.
func (r *Replica) Bootstrap() (*core.Store, uint64, error) {
	const maxRestarts = 5
	var lastErr error
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if attempt > 0 && !r.sleepBackoff(attempt) {
			break
		}
		dir, seq, err := r.syncSnapshot()
		if err != nil {
			if _, changed := err.(seqChangedError); changed {
				// The primary moved on; back off, then re-sync at the new
				// seq. Without the pause a write-heavy primary outruns the
				// download every time and bootstrap livelocks.
				lastErr = err
				r.noteRestart(attempt + 1)
				continue
			}
			r.recordErr(err)
			return nil, 0, err
		}
		store, err := r.openSnapshot(dir, seq)
		if err != nil {
			r.recordErr(err)
			return nil, 0, err
		}
		r.seq.Store(seq)
		r.store.Store(store)
		r.syncs.Inc()
		r.syncStalled.Store(false)
		r.pruneBelow(seq)
		return store, seq, nil
	}
	r.recordErr(lastErr)
	return nil, 0, fmt.Errorf("cluster: bootstrap gave up after %d seq changes: %w", maxRestarts, lastErr)
}

// noteRestart records one more consecutive seq-advance restart and flips the
// stalled flag once they pile up.
func (r *Replica) noteRestart(consecutive int) {
	r.syncRestarts.Inc()
	if consecutive >= stalledThreshold {
		r.syncStalled.Store(true)
	}
}

// sleepBackoff pauses before restart attempt n (1-based): 100ms doubling to
// a 5s cap, interruptible by Stop. Returns false when stopping.
func (r *Replica) sleepBackoff(n int) bool {
	d := backoffBase
	for i := 1; i < n && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	select {
	case <-r.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// Run follows the primary until Stop. Whenever the primary's seq passes the
// replica's it first tries the incremental path — tail /v1/replica/updates
// and apply the records to the open store in place, no swap — and only when
// that window is unavailable syncs a full snapshot, opens it read-only and
// hands it to swap (normally server.SwapStore, which drains and closes the
// previous store). Sync failures are recorded and retried on the next poll;
// consecutive mid-download seq advances back off exponentially while the
// last good snapshot keeps serving.
func (r *Replica) Run(swap func(*core.Store)) {
	defer close(r.done)
	ticker := time.NewTicker(r.opts.PollInterval)
	defer ticker.Stop()
	restarts := 0
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			seq, err := r.fetchSeq()
			if err != nil {
				r.recordErr(err)
				continue
			}
			// Any seq other than the one being served means the primary's
			// image changed: larger after a mutation, different after a
			// primary restart (the seq is boot-stamped, but a clock that
			// stepped backwards can still present a smaller one — that is
			// a new history, not an older copy of ours).
			if seq == r.seq.Load() {
				restarts = 0
				r.syncStalled.Store(false)
				continue
			}
			switch r.tailUpdates() {
			case tailCaughtUp, tailRetry:
				restarts = 0
				r.syncStalled.Store(false)
				continue
			case tailFullSync:
			}
			dir, newSeq, err := r.syncSnapshot()
			if err != nil {
				r.recordErr(err)
				if _, changed := err.(seqChangedError); changed {
					restarts++
					r.noteRestart(restarts)
					if !r.sleepBackoff(restarts) {
						return
					}
				}
				continue
			}
			restarts = 0
			r.syncStalled.Store(false)
			if newSeq == r.seq.Load() {
				continue
			}
			store, err := r.openSnapshot(dir, newSeq)
			if err != nil {
				r.recordErr(err)
				continue
			}
			r.seq.Store(newSeq)
			r.store.Store(store)
			r.syncs.Inc()
			swap(store)
			r.pruneBelow(newSeq)
		}
	}
}

// tailUpdates outcomes.
type tailOutcome int

const (
	tailCaughtUp tailOutcome = iota // applied records (possibly none); in sync
	tailRetry                       // transient fetch/apply error; poll again
	tailFullSync                    // window gone; caller must snapshot-sync
)

// tailUpdates pulls the primary's update log from the replica's seq and
// applies it to the open store in place. It loops until caught up with the
// live seq observed at fetch time, the stream errors, or Stop.
func (r *Replica) tailUpdates() tailOutcome {
	store := r.store.Load()
	if store == nil {
		return tailFullSync
	}
	for {
		select {
		case <-r.stop:
			return tailCaughtUp
		default:
		}
		batch, err := r.fetchUpdates(r.seq.Load())
		if err != nil {
			if errors.Is(err, errUpdateWindowGone) {
				return tailFullSync
			}
			r.recordErr(err)
			return tailRetry
		}
		if len(batch.recs) > 0 {
			if err := store.ApplyReplicatedUpdates(batch.recs); err != nil {
				// The stream and the open store disagree (divergent history,
				// unknown table, bad record): repair with a full sync.
				r.recordErr(err)
				return tailFullSync
			}
			r.seq.Store(batch.upTo)
			r.deltaBatches.Inc()
			r.deltaRecords.Add(int64(len(batch.recs)))
		}
		if len(batch.recs) == 0 || batch.upTo >= batch.live {
			return tailCaughtUp
		}
	}
}

// Stop ends Run (if running) and waits for it to return.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Replica) recordErr(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	r.lastErr.Store(&msg)
}

func (r *Replica) snapDir(seq uint64) string {
	return filepath.Join(r.opts.DataDir, fmt.Sprintf("snap-%016d", seq))
}

// pruneBelow removes every snapshot dir other than the active one (a
// replaced snapshot is never served again — after a primary restart the
// replacement's boot-stamped seq may even be numerically smaller).
func (r *Replica) pruneBelow(active uint64) {
	entries, err := os.ReadDir(r.opts.DataDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(name, "snap-"), 10, 64)
		if err != nil || seq == active {
			continue
		}
		_ = os.RemoveAll(filepath.Join(r.opts.DataDir, name))
	}
}

// openSnapshot serves an imported snapshot dir read-only. The store
// inherits the replicated seq, so what this node reports downstream (its
// own /v1/replica/seq, the router's lag probes, chained replicas) is the
// primary's image identity rather than a local counter. Its own update log
// re-logs replicated records at the primary's seqs: lookups merge the
// overlay, a restart replays the tail, and chained followers can tail this
// node in turn.
func (r *Replica) openSnapshot(dir string, seq uint64) (*core.Store, error) {
	return core.Open(core.Config{
		Backend:            core.BackendFile,
		DataDir:            dir,
		Sync:               r.opts.Sync,
		Direct:             r.opts.Direct,
		ReadOnly:           true,
		InitialSnapshotSeq: seq,
	})
}

// errUpdateWindowGone means the replica's seq fell out of the primary's
// retained update window (or the primary has no such window at all); only a
// full snapshot sync can re-enter it.
var errUpdateWindowGone = errors.New("cluster: update window gone")

// Bounds on what fetchUpdates/fetchSeq will buffer from one response. The
// server caps update payloads at 4 MB; the slack tolerates a cap raise on
// the primary without tipping the follower over.
const (
	maxUpdatesRead = int64(8 << 20)
	maxSeqRead     = int64(64 << 10)
	// maxSnapshotPartLen bounds the part length a snapshot response may
	// advertise (a corrupt header must not drive a terabyte download loop).
	maxSnapshotPartLen = int64(1) << 40
	fetchTimeout       = 60 * time.Second
)

// updateBatch is one decoded /v1/replica/updates response.
type updateBatch struct {
	recs []datadir.UpdateRecord
	upTo uint64 // seq of the last record (== since when empty)
	live uint64 // primary's live seq when the batch was cut
}

// fetchUpdates pulls the primary's update records after `since`, verifying
// the body against the chunk CRC header before decoding.
func (r *Replica) fetchUpdates(since uint64) (*updateBatch, error) {
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/v1/replica/updates?since=%d", r.opts.PrimaryURL, since)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch updates: %w", err)
	}
	resp, err := r.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch updates: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone, http.StatusNotFound:
		// Gone: since was compacted away or the window was reset. NotFound:
		// the primary predates the endpoint. Either way, full sync.
		return nil, errUpdateWindowGone
	default:
		return nil, fmt.Errorf("cluster: fetch updates: %s", resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxUpdatesRead+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch updates: %w", err)
	}
	if int64(len(data)) > maxUpdatesRead {
		return nil, fmt.Errorf("cluster: fetch updates: response exceeds %d bytes", maxUpdatesRead)
	}
	wantCRC, err := strconv.ParseUint(resp.Header.Get(server.HeaderChunkCRC), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch updates: bad chunk CRC header: %w", err)
	}
	if got := crc32.Checksum(data, crcTable); got != uint32(wantCRC) {
		return nil, fmt.Errorf("cluster: fetch updates: CRC mismatch (got %08x want %08x)", got, wantCRC)
	}
	b := &updateBatch{upTo: since}
	if v := resp.Header.Get(server.HeaderUpdatesUpTo); v != "" {
		if b.upTo, err = strconv.ParseUint(v, 10, 64); err != nil {
			return nil, fmt.Errorf("cluster: fetch updates: bad upto header: %w", err)
		}
	}
	if v := resp.Header.Get(server.HeaderSeq); v != "" {
		if b.live, err = strconv.ParseUint(v, 10, 64); err != nil {
			return nil, fmt.Errorf("cluster: fetch updates: bad seq header: %w", err)
		}
	}
	for rest := data; len(rest) > 0; {
		rec, n, err := datadir.DecodeUpdateRecord(rest)
		if err != nil {
			return nil, fmt.Errorf("cluster: fetch updates: %w", err)
		}
		// DecodeUpdateRecord's Raw aliases the whole response body, and the
		// overlay plus the re-logged retain window hold records indefinitely:
		// copy each payload into a right-sized slice so a few long-lived
		// records cannot pin multi-MB batch buffers.
		rec.Raw = append(make([]byte, 0, len(rec.Raw)), rec.Raw...)
		b.recs = append(b.recs, rec)
		rest = rest[n:]
	}
	if len(b.recs) > 0 && b.recs[len(b.recs)-1].Seq != b.upTo {
		return nil, fmt.Errorf("cluster: fetch updates: last record seq %d != advertised upto %d",
			b.recs[len(b.recs)-1].Seq, b.upTo)
	}
	r.bytesFetched.Add(int64(len(data)))
	r.deltaBytes.Add(int64(len(data)))
	return b, nil
}

// fetchSeq asks the primary for its current snapshot seq. The read is
// bounded and carries its own deadline so a hung or malicious primary can
// neither balloon memory nor park the poll loop forever (the injected
// HTTPClient may have no timeout of its own).
func (r *Replica) fetchSeq() (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opts.PrimaryURL+"/v1/replica/seq", nil)
	if err != nil {
		return 0, fmt.Errorf("cluster: fetch seq: %w", err)
	}
	resp, err := r.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("cluster: fetch seq: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: fetch seq: %s", resp.Status)
	}
	var out struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSeqRead)).Decode(&out); err != nil {
		return 0, fmt.Errorf("cluster: fetch seq: %w", err)
	}
	return out.Seq, nil
}

// syncSnapshot downloads the primary's current snapshot into a local
// snap-<seq> dir (no-op when that dir already exists) and returns it.
func (r *Replica) syncSnapshot() (string, uint64, error) {
	seq, err := r.fetchSeq()
	if err != nil {
		return "", 0, err
	}
	dir := r.snapDir(seq)
	if core.DirInitialized(dir) {
		// A previous process finished this import before dying; it is
		// committed (manifest last) and servable as-is.
		return dir, seq, nil
	}
	manifest, err := r.fetchWholePart("manifest", seq)
	if err != nil {
		return "", 0, err
	}
	state, err := r.fetchWholePart("state", seq)
	if err != nil {
		return "", 0, err
	}
	blocks, blocksCRC, err := r.fetchBlocksResumable(seq)
	if err != nil {
		return "", 0, err
	}
	snap := &core.Snapshot{Seq: seq, Manifest: manifest, State: state, Blocks: blocks, BlocksCRC: blocksCRC}
	// A half-imported dir (kill -9 between block file and manifest commit)
	// is uninitialized by construction; clear it and re-import.
	if err := os.RemoveAll(dir); err != nil {
		return "", 0, err
	}
	if err := core.ImportSnapshot(dir, snap, r.opts.Sync); err != nil {
		return "", 0, err
	}
	_ = os.RemoveAll(r.incomingDir())
	return dir, seq, nil
}

// chunk is one verified snapshot chunk plus the part-level metadata its
// response headers carried.
type chunk struct {
	data    []byte
	seq     uint64
	partLen int64
	partCRC uint32
}

// fetchChunk downloads and CRC-verifies bytes [offset, offset+limit) of a
// part at the pinned seq. The body read is bounded by the requested limit
// and the request carries its own deadline (see fetchSeq).
func (r *Replica) fetchChunk(part string, seq uint64, offset, limit int64) (*chunk, error) {
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
	defer cancel()
	url := fmt.Sprintf("%s/v1/replica/snapshot?part=%s&seq=%d&offset=%d&limit=%d",
		r.opts.PrimaryURL, part, seq, offset, limit)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %s@%d: %w", part, offset, err)
	}
	resp, err := r.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %s@%d: %w", part, offset, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		newSeq, _ := strconv.ParseUint(resp.Header.Get(server.HeaderSeq), 10, 64)
		return nil, seqChangedError{newSeq: newSeq}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: fetch %s@%d: %s", part, offset, resp.Status)
	}
	// The server never sends more than the requested limit; a body that
	// exceeds it is a misbehaving peer, not a bigger chunk to accept.
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %s@%d: %w", part, offset, err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("cluster: fetch %s@%d: response exceeds requested %d bytes", part, offset, limit)
	}
	c := &chunk{data: data}
	if c.seq, err = strconv.ParseUint(resp.Header.Get(server.HeaderSeq), 10, 64); err != nil {
		return nil, fmt.Errorf("cluster: fetch %s@%d: bad seq header: %w", part, offset, err)
	}
	if c.seq != seq {
		return nil, seqChangedError{newSeq: c.seq}
	}
	if c.partLen, err = strconv.ParseInt(resp.Header.Get(server.HeaderPartLen), 10, 64); err != nil {
		return nil, fmt.Errorf("cluster: fetch %s@%d: bad length header: %w", part, offset, err)
	}
	if c.partLen < 0 || c.partLen > maxSnapshotPartLen {
		return nil, fmt.Errorf("cluster: fetch %s@%d: implausible part length %d", part, offset, c.partLen)
	}
	partCRC, err := strconv.ParseUint(resp.Header.Get(server.HeaderPartCRC), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %s@%d: bad part CRC header: %w", part, offset, err)
	}
	c.partCRC = uint32(partCRC)
	chunkCRC, err := strconv.ParseUint(resp.Header.Get(server.HeaderChunkCRC), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %s@%d: bad chunk CRC header: %w", part, offset, err)
	}
	if got := crc32.Checksum(data, crcTable); got != uint32(chunkCRC) {
		return nil, fmt.Errorf("cluster: fetch %s@%d: chunk CRC mismatch (got %08x want %08x)", part, offset, got, chunkCRC)
	}
	r.bytesFetched.Add(int64(len(data)))
	return c, nil
}

// fetchWholePart downloads a small part (manifest, state) in full,
// verifying the part CRC end to end.
func (r *Replica) fetchWholePart(part string, seq uint64) ([]byte, error) {
	var buf []byte
	for {
		c, err := r.fetchChunk(part, seq, int64(len(buf)), int64(r.opts.ChunkBytes))
		if err != nil {
			return nil, err
		}
		buf = append(buf, c.data...)
		if int64(len(buf)) >= c.partLen {
			if got := crc32.Checksum(buf, crcTable); got != c.partCRC {
				return nil, fmt.Errorf("cluster: %s CRC mismatch (got %08x want %08x)", part, got, c.partCRC)
			}
			return buf, nil
		}
		if len(c.data) == 0 {
			return nil, fmt.Errorf("cluster: %s: empty chunk before end of part", part)
		}
	}
}

func (r *Replica) incomingDir() string { return filepath.Join(r.opts.DataDir, "incoming") }

// incomingMeta pins a partial download to a seq so a restart can tell
// whether the bytes on disk belong to the image it is about to fetch.
type incomingMeta struct {
	Seq     uint64 `json:"seq"`
	PartLen int64  `json:"partLen"`
	PartCRC uint32 `json:"partCRC"`
}

// fetchBlocksResumable downloads the block image through a durable partial
// file, resuming at the byte offset a previous (possibly killed) process
// reached. Every chunk is CRC-verified before it is appended, and the
// assembled image is verified against the part CRC advertised when the
// download started.
func (r *Replica) fetchBlocksResumable(seq uint64) ([]byte, uint32, error) {
	dir := r.incomingDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	partialPath := filepath.Join(dir, "blocks.partial")
	metaPath := filepath.Join(dir, "meta.json")

	var meta *incomingMeta
	if raw, err := os.ReadFile(metaPath); err == nil {
		var m incomingMeta
		if json.Unmarshal(raw, &m) == nil && m.Seq == seq {
			meta = &m
		}
	}
	if meta == nil {
		// No resumable state for this seq: start clean.
		_ = os.Remove(partialPath)
		_ = os.Remove(metaPath)
	}

	f, err := os.OpenFile(partialPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	offset := int64(0)
	if st, err := f.Stat(); err == nil {
		offset = st.Size()
	}
	if meta != nil && offset > meta.PartLen {
		// The partial outgrew the advertised image (corrupt state from an
		// out-of-band write): start over rather than serving a bad resume.
		if err := f.Truncate(0); err != nil {
			return nil, 0, err
		}
		offset = 0
	}
	r.resumeOff.Store(offset)

	for {
		if meta != nil && offset >= meta.PartLen {
			break
		}
		c, err := r.fetchChunk("blocks", seq, offset, int64(r.opts.ChunkBytes))
		if err != nil {
			return nil, 0, err
		}
		if meta == nil {
			meta = &incomingMeta{Seq: seq, PartLen: c.partLen, PartCRC: c.partCRC}
			raw, _ := json.Marshal(meta)
			// Meta is committed before the first byte lands so a restart
			// can trust the partial file's provenance.
			if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
				return nil, 0, err
			}
		}
		if c.partLen != meta.PartLen || c.partCRC != meta.PartCRC {
			return nil, 0, fmt.Errorf("cluster: blocks part changed mid-download at seq %d", seq)
		}
		if _, err := f.WriteAt(c.data, offset); err != nil {
			return nil, 0, err
		}
		offset += int64(len(c.data))
		if offset < meta.PartLen && len(c.data) == 0 {
			return nil, 0, fmt.Errorf("cluster: blocks: empty chunk at offset %d of %d", offset, meta.PartLen)
		}
	}
	if err := f.Sync(); err != nil {
		return nil, 0, err
	}
	blocks, err := os.ReadFile(partialPath)
	if err != nil {
		return nil, 0, err
	}
	if int64(len(blocks)) != meta.PartLen {
		return nil, 0, fmt.Errorf("cluster: blocks: assembled %d bytes, want %d", len(blocks), meta.PartLen)
	}
	// The end-to-end check: the whole image against the CRC advertised at
	// download start (ImportSnapshot re-verifies against the same value).
	if got := crc32.Checksum(blocks, crcTable); got != meta.PartCRC {
		// A poisoned partial would fail forever; discard it so the next
		// attempt starts clean.
		_ = os.Remove(partialPath)
		_ = os.Remove(metaPath)
		return nil, 0, fmt.Errorf("cluster: blocks image CRC mismatch (got %08x want %08x)", got, meta.PartCRC)
	}
	return blocks, meta.PartCRC, nil
}
