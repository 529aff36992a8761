package core

import "time"

// StageTrace accumulates the per-stage latency decomposition of one serving
// operation (all times in microseconds). A caller that wants a per-request
// breakdown — the server's slow-request log — passes a zero StageTrace to a
// *Traced lookup variant. The struct is plain data with no synchronization:
// one trace belongs to one request.
type StageTrace struct {
	// ProbeUS is time spent probing the DRAM cache (and, for ids it misses,
	// the delta overlay).
	ProbeUS float64
	// QueueWaitUS is time the request's miss reads spent waiting for an I/O
	// scheduler issue slot (0 when they read the device's memory in place).
	QueueWaitUS float64
	// ServiceUS is the wall time of the request's miss reads less
	// QueueWaitUS: an in-place visit, or a scheduled read after its slot.
	ServiceUS float64
	// DecodeUS is time spent fp16-decoding requested vectors (prefetch
	// admission decodes are not included).
	DecodeUS float64
	// Lookups/Hits/Misses count the vectors this operation served and how
	// they were classified; BlockReads counts device blocks it read.
	Lookups    int
	Hits       int
	Misses     int
	BlockReads int
}

// usSince converts the elapsed time since start to microseconds.
func usSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Microsecond)
}

// LookupTraced is Lookup with a per-stage latency breakdown accumulated into
// tr; a nil tr is the untraced Lookup.
func (s *Store) LookupTraced(tableIdx int, id uint32, tr *StageTrace) ([]float32, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, err
	}
	return st.lookup(id, tr)
}

// LookupBatchTraced is LookupBatch with a per-stage latency breakdown
// accumulated into tr; a nil tr is the untraced LookupBatch.
func (s *Store) LookupBatchTraced(tableIdx int, ids []uint32, tr *StageTrace) ([][]float32, error) {
	st, err := s.tableAt(tableIdx)
	if err != nil {
		return nil, err
	}
	return st.lookupBatch(ids, tr)
}

// ServeRequestTraced is ServeRequest with a per-stage latency breakdown
// accumulated into tr across all tables; a nil tr is the untraced
// ServeRequest.
func (s *Store) ServeRequestTraced(req Request, tr *StageTrace) ([][][]float32, error) {
	return s.serveRequest(req, tr)
}
