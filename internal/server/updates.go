// Incremental replication and the HTTP update path:
//
//	GET /v1/replica/updates?since=N
//	    application/octet-stream of concatenated update-log records (the
//	    framing of datadir.EncodeUpdateRecord) with Seq > N, oldest first, with
//	    headers
//	        X-Bandana-Seq          the node's live snapshot seq
//	        X-Bandana-From         the seq the stream resumes after (echo of ?since)
//	        X-Bandana-Upto         seq of the last record in the response
//	        X-Bandana-Count        number of records in the response
//	        X-Bandana-Chunk-Crc32c CRC-32C of the response body
//	    An empty 200 with Upto == From means the follower is caught up.
//	    410 Gone means `since` is outside the retained update window (it was
//	    compacted away, or a structural mutation reset the window): the
//	    follower must bootstrap a full snapshot, whose seq re-enters the
//	    window.
//
//	POST /v1/update  {"table": "...", "id": N, "vector": [...]}
//	    single-vector update (the HTTP twin of the wire protocol's OpUpdate);
//	    responds with the seq the update committed at.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"

	"bandana/internal/core"
	"bandana/internal/datadir"
)

// Incremental-update header names (canonical form).
const (
	HeaderUpdatesFrom  = "X-Bandana-From"
	HeaderUpdatesUpTo  = "X-Bandana-Upto"
	HeaderUpdatesCount = "X-Bandana-Count"
)

// One response carries at most this many records / framed bytes; a lagging
// follower just issues another request from the returned Upto.
const (
	maxUpdateRecordsPerResponse = 1 << 16
	maxUpdateBytesPerResponse   = 4 << 20
)

func (s *Server) handleReplicaUpdates(w http.ResponseWriter, r *http.Request) {
	store := s.store(r)
	sinceStr := r.URL.Query().Get("since")
	if sinceStr == "" {
		writeError(w, http.StatusBadRequest, "query parameter 'since' is required")
		return
	}
	since, err := strconv.ParseUint(sinceStr, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid since %q", sinceStr)
		return
	}
	recs, upTo, ok := store.UpdatesSince(since, maxUpdateRecordsPerResponse, maxUpdateBytesPerResponse)
	// Loaded after UpdatesSince, so live >= upTo: a follower that sees
	// upTo < live knows more records are already fetchable.
	live := store.SnapshotSeq()
	if !ok {
		w.Header().Set(HeaderSeq, strconv.FormatUint(live, 10))
		writeError(w, http.StatusGone,
			"seq %d is outside the retained update window; bootstrap a full snapshot", since)
		return
	}
	var payload []byte
	for _, rec := range recs {
		payload = datadir.EncodeUpdateRecord(payload, rec)
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderSeq, strconv.FormatUint(live, 10))
	h.Set(HeaderUpdatesFrom, strconv.FormatUint(since, 10))
	h.Set(HeaderUpdatesUpTo, strconv.FormatUint(upTo, 10))
	h.Set(HeaderUpdatesCount, strconv.Itoa(len(recs)))
	h.Set(HeaderChunkCRC, fmt.Sprintf("%08x", crc32.Checksum(payload, snapshotCRCTable)))
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// updateRequest overwrites one embedding vector.
type updateRequest struct {
	Table  string    `json:"table"`
	ID     uint32    `json:"id"`
	Vector []float32 `json:"vector"`
}

// updateResponse acknowledges the committed update with its seq.
type updateResponse struct {
	Table string `json:"table"`
	ID    uint32 `json:"id"`
	Seq   uint64 `json:"seq"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Table == "" || len(req.Vector) == 0 {
		writeError(w, http.StatusBadRequest, "'table' and non-empty 'vector' are required")
		return
	}
	store := s.store(r)
	idx, err := store.TableIndex(req.Table)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// The response promises the seq THIS update committed at; reading the
	// live SnapshotSeq after the fact would report a later seq whenever
	// concurrent updates interleave.
	seq, err := store.UpdateVectorSeq(idx, req.ID, req.Vector)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrReadOnly) {
			status = http.StatusForbidden
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{Table: req.Table, ID: req.ID, Seq: seq})
}
