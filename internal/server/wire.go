package server

import (
	"errors"
	"net"

	"bandana/internal/core"
	"bandana/internal/wire"
)

// ServeWire serves the store over bwp/1 (the binary wire protocol) on ln,
// alongside the HTTP API. Lookups travel as raw fp16 — no JSON, no float64
// round-trip — straight from the store's raw read view. It blocks until ln
// fails (net.ErrClosed after the caller closes it).
//
// The wire path shares the HTTP path's store-swap discipline: every request
// pins the store it started with, so a concurrent SwapStore cannot close a
// store out from under a frame being served.
func (s *Server) ServeWire(ln net.Listener) error {
	s.wireEnabled.Store(true)
	return s.wire.Serve(ln)
}

// WireServer exposes the underlying wire server (for tests and for serving
// an already-accepted connection).
func (s *Server) WireServer() *wire.Server { return s.wire }

// wireBackend adapts the Server (with its storeRef pinning) to wire.Backend.
type wireBackend struct{ s *Server }

func (b wireBackend) LookupBatchRaw(table string, ids []uint32) (int, [][]byte, func(), error) {
	ref := b.s.acquireRef()
	defer ref.release()
	store := ref.store
	idx, err := store.TableIndex(table)
	if err != nil {
		return 0, nil, nil, &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
	}
	dim, err := store.TableDim(idx)
	if err != nil {
		return 0, nil, nil, &wire.Error{Code: wire.CodeInternal, Msg: err.Error()}
	}
	// The leased variant hands the wire server zero-copy views into the
	// cache arenas; the server releases after serializing the frame.
	vecs, release, err := store.LookupBatchRawLeased(idx, ids)
	if err != nil {
		// Lookup failures are id-range problems: the client asked for
		// something the table does not hold.
		return 0, nil, nil, &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
	}
	return dim, vecs, release, nil
}

func (b wireBackend) UpdateRaw(table string, id uint32, raw []byte) error {
	ref := b.s.acquireRef()
	defer ref.release()
	store := ref.store
	idx, err := store.TableIndex(table)
	if err != nil {
		return &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
	}
	if err := store.UpdateVectorRaw(idx, id, raw); err != nil {
		code := wire.CodeBadRequest
		if errors.Is(err, core.ErrReadOnly) {
			code = wire.CodeInternal
		}
		return &wire.Error{Code: code, Msg: err.Error()}
	}
	return nil
}
