package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/metrics"
)

// Backend serves bwp requests. Implementations return raw fp16 vector bytes
// (the store's canonical encoding) so the wire path never widens to float.
//
// The ids and raw a call is given are the server's, valid only during the
// call: the server parses ids into a slice of the handler's and raw aliases
// the request's pooled payload, both reused for the next frame. A Backend
// that keeps either past its return must copy it.
//
// A Backend may return *Error to pick the error code sent to the client;
// any other error is reported as CodeInternal.
type Backend interface {
	// LookupBatchRaw resolves ids in table to their fp16 encodings. All
	// returned vectors are dim elements (2*dim bytes) long. release, when
	// non-nil, is called by the server exactly once after it has serialized
	// the vectors into the response frame: it lets the backend hand out
	// zero-copy views into its own storage (e.g. the store's cache arenas)
	// whose lifetime ends at the release.
	LookupBatchRaw(table string, ids []uint32) (dim int, vecs [][]byte, release func(), err error)
	// UpdateRaw overwrites id in table with the given fp16 encoding.
	UpdateRaw(table string, id uint32, raw []byte) error
}

// ServerStats are cumulative counters for one Server.
type ServerStats struct {
	ConnsTotal  int64 `json:"conns_total"`
	ConnsActive int64 `json:"conns_active"`
	Requests    int64 `json:"requests"`
	Errors      int64 `json:"errors"` // error frames sent
	// Handlers is the number of request handler goroutines alive across all
	// connections, idle ones included, and HandlersMax its high-water mark.
	// A connection keeps the handlers it starts until it closes, so Handlers
	// follows the peak concurrency of the open connections, not the current
	// load.
	Handlers    int64 `json:"handlers"`
	HandlersMax int64 `json:"handlers_max"`
	// BufferBytes is the heap the open connections' read buffers hold,
	// serverReadBuffer each. Responses are written from their frames, with
	// no buffer of the connection's.
	BufferBytes int64 `json:"buffer_bytes"`
	// Ops breaks requests down by opcode; only opcodes that have been seen
	// appear. Latency covers the full handle time of one request frame
	// (parse, backend call, response encode) in microseconds.
	Ops map[string]OpStats `json:"ops,omitempty"`
}

// OpStats are the per-opcode counters inside ServerStats.
type OpStats struct {
	Requests int64            `json:"requests"`
	Errors   int64            `json:"errors"` // error frames sent for this opcode
	Latency  metrics.Snapshot `json:"latency"`
}

// Opcode dispatch indexes for per-opcode metrics. Unknown opcodes share the
// "other" slot so a misbehaving client cannot grow the metric set unboundedly.
const (
	opIdxLookup = iota
	opIdxUpdate
	opIdxPing
	opIdxOther
	opIdxCount
)

// OpNames maps the per-opcode metric slots to their wire names, in slot
// order. Exposed so metric renderers label series consistently.
var OpNames = [opIdxCount]string{"lookup", "update", "ping", "other"}

func opIndex(op uint8) int {
	switch op {
	case OpLookup:
		return opIdxLookup
	case OpUpdate:
		return opIdxUpdate
	case OpPing:
		return opIdxPing
	}
	return opIdxOther
}

// opMetrics are one opcode's counters. The latency histogram is lock-free,
// so the multiplexed handler goroutines record without coordination.
type opMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	latency  *metrics.Histogram
}

// Server accepts bwp/1 connections and dispatches frames to a Backend.
// Requests multiplexed on one connection are handled concurrently, each by
// one of the connection's handler goroutines, and responses are written back
// as they finish, coalescing queued frames into single flushes.
type Server struct {
	Backend Backend
	// MaxBatch caps ids per lookup request; 0 means DefaultMaxBatch.
	MaxBatch int

	connsTotal  atomic.Int64
	connsActive atomic.Int64
	requests    atomic.Int64
	errorFrames atomic.Int64
	handlers    atomic.Int64
	handlersMax atomic.Int64
	bufBytes    atomic.Int64

	// Per-opcode metrics are built lazily because Server is constructed as a
	// zero value (&Server{Backend: ...}); opsOnce gives every goroutine a
	// happens-before edge to the histogram allocations.
	opsOnce sync.Once
	ops     *[opIdxCount]opMetrics
}

// opsTable returns the per-opcode metric slots, building them on first use.
func (s *Server) opsTable() *[opIdxCount]opMetrics {
	s.opsOnce.Do(func() {
		arr := new([opIdxCount]opMetrics)
		for i := range arr {
			arr[i].latency = metrics.NewLatencyHistogram()
		}
		s.ops = arr
	})
	return s.ops
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		ConnsTotal:  s.connsTotal.Load(),
		ConnsActive: s.connsActive.Load(),
		Requests:    s.requests.Load(),
		Errors:      s.errorFrames.Load(),
		Handlers:    s.handlers.Load(),
		HandlersMax: s.handlersMax.Load(),
		BufferBytes: s.bufBytes.Load(),
	}
	ops := s.opsTable()
	for i := range ops {
		om := &ops[i]
		req, errs := om.requests.Load(), om.errors.Load()
		if req == 0 && errs == 0 {
			continue
		}
		if st.Ops == nil {
			st.Ops = make(map[string]OpStats, opIdxCount)
		}
		st.Ops[OpNames[i]] = OpStats{Requests: req, Errors: errs, Latency: om.latency.Snapshot()}
	}
	return st
}

func (s *Server) maxBatch() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return DefaultMaxBatch
}

// Serve accepts connections until ln fails (returning net.ErrClosed after
// ln.Close). Each connection is served on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveTracked(conn)
	}
}

func (s *Server) serveTracked(conn net.Conn) {
	s.connsTotal.Add(1)
	s.connsActive.Add(1)
	defer s.connsActive.Add(-1)
	s.ServeConn(conn)
}

// ServeConn handles one connection and returns when it is closed or the
// stream breaks. Unframeable input (bad magic, unsupported version,
// oversized frame, CRC mismatch) tears the connection down, answering with
// an error frame first when the request id is still trustworthy;
// well-framed but invalid requests get per-id error frames and the
// connection stays open.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()

	out := make(chan *[]byte, 64)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.writeLoop(conn, out)
	}()

	var handlers sync.WaitGroup
	s.readLoop(conn, out, &handlers)

	// Let in-flight handlers finish and queue their responses, then shut
	// the writer down once everything queued has been written (or the
	// writer has failed and is draining).
	handlers.Wait()
	close(out)
	writerWG.Wait()
}

// serverReadBuffer is the size of a connection's read buffer: it holds a
// typical lookup request (tens of ids, a few hundred bytes) several times
// over, so pipelined requests share a read, and a frame larger than the
// buffer is read straight into its payload.
const serverReadBuffer = 4 << 10

// request is one well-framed request frame, handed from the read loop to a
// handler, which returns its pooled payload (see getFrame) once served.
type request struct {
	h       Header
	payload *[]byte
}

// handlerScratch is what one handler reuses from frame to frame: the ids
// of the lookup it serves, and the table name its last lookup named, so
// that a run of lookups of one table converts the name to a string once.
type handlerScratch struct {
	ids   []uint32
	table string
}

// readLoop reads request frames and hands each to an idle handler of the
// connection. The hand-off channel is unbuffered, so a send succeeds only
// when a handler is waiting for work; when none is, the frame starts a new
// handler, which then serves the connection until it closes. A connection
// therefore runs as many handlers as it ever had requests in service at
// once — a pipelining client is never blocked behind a slow request — and a
// frame costs no goroutine start and no stack growth once its connection has
// warmed up. Closing work on return stops the idle handlers.
func (s *Server) readLoop(conn net.Conn, out chan<- *[]byte, handlers *sync.WaitGroup) {
	work := make(chan request)
	defer close(work)
	br := bufio.NewReaderSize(conn, serverReadBuffer)
	s.bufBytes.Add(int64(br.Size()))
	defer s.bufBytes.Add(-int64(br.Size()))
	var hdr [HeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		h, err := parseHeader(hdr[:])
		if err != nil {
			// The magic validated but the frame is unusable. The request
			// id is still meaningful, so answer before closing; with a bad
			// magic the stream is garbage and there is nothing to say.
			if !errors.Is(err, ErrBadMagic) {
				reqID := binary.LittleEndian.Uint64(hdr[8:])
				s.sendError(out, reqID, false, CodeBadRequest, err.Error())
			}
			return
		}
		// The payload is read into a pooled buffer, which the handler
		// returns once it has served the frame.
		buf := getFrame()
		if cap(*buf) < int(h.Len) {
			*buf = make([]byte, h.Len)
		}
		payload := (*buf)[:h.Len]
		*buf = payload
		if _, err := io.ReadFull(br, payload); err != nil {
			putFrame(buf)
			return
		}
		if h.Flags&FlagCRC != 0 {
			var tr [4]byte
			if _, err := io.ReadFull(br, tr[:]); err != nil {
				putFrame(buf)
				return
			}
			if binary.LittleEndian.Uint32(tr[:]) != Checksum(payload) {
				// Corruption in transit: nothing later on this stream can
				// be trusted either.
				putFrame(buf)
				s.sendError(out, h.ReqID, false, CodeBadRequest, ErrBadCRC.Error())
				return
			}
		}
		if h.Flags&^knownFlags != 0 || h.Flags&FlagError != 0 {
			putFrame(buf)
			s.sendError(out, h.ReqID, h.Flags&FlagCRC != 0, CodeBadRequest, "unsupported flags")
			continue
		}
		s.requests.Add(1)
		req := request{h: h, payload: buf}
		select {
		case work <- req:
		default:
			handlers.Add(1)
			go s.handlerLoop(req, work, out, handlers)
		}
	}
}

// handlerLoop serves req, then every request the read loop hands it, until
// the connection's work channel closes.
func (s *Server) handlerLoop(req request, work <-chan request, out chan<- *[]byte, handlers *sync.WaitGroup) {
	defer handlers.Done()
	n := s.handlers.Add(1)
	defer s.handlers.Add(-1)
	for {
		high := s.handlersMax.Load()
		if n <= high || s.handlersMax.CompareAndSwap(high, n) {
			break
		}
	}
	var sc handlerScratch
	s.handle(req.h, *req.payload, out, &sc)
	putFrame(req.payload)
	for req := range work {
		s.handle(req.h, *req.payload, out, &sc)
		putFrame(req.payload)
	}
}

// handle services one request frame and queues the response, recording the
// opcode's request count, error count, and full handle latency (parse +
// backend call + response encode). Nothing it hands the backend outlives
// the call: payload goes back to the pool after it, and sc is the calling
// handler's, reused for its next frame.
func (s *Server) handle(h Header, payload []byte, out chan<- *[]byte, sc *handlerScratch) {
	om := &s.opsTable()[opIndex(h.Opcode)]
	om.requests.Add(1)
	start := time.Now()
	defer func() {
		om.latency.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	}()
	fail := func(code uint16, msg string) {
		om.errors.Add(1)
		s.sendError(out, h.ReqID, h.Flags&FlagCRC != 0, code, msg)
	}
	failBackend := func(err error) {
		om.errors.Add(1)
		s.sendBackendError(out, h.ReqID, h.Flags&FlagCRC != 0, err)
	}

	withCRC := h.Flags&FlagCRC != 0
	resp := Header{Opcode: h.Opcode, ReqID: h.ReqID}
	if withCRC {
		resp.Flags = FlagCRC
	}
	switch h.Opcode {
	case OpLookup:
		name, ids, err := parseLookupRequest(payload, sc.ids[:0])
		if err != nil {
			fail(CodeBadRequest, err.Error())
			return
		}
		sc.ids = ids
		if len(ids) > s.maxBatch() {
			fail(CodeTooLarge, "batch exceeds server limit")
			return
		}
		if string(name) != sc.table {
			sc.table = string(name)
		}
		dim, vecs, release, err := s.Backend.LookupBatchRaw(sc.table, ids)
		if err != nil {
			failBackend(err)
			return
		}
		// The vectors are copied once, from the backend's views straight
		// into the pooled frame the writer sends.
		frame := getFrame()
		*frame = appendLookupFrame((*frame)[:0], resp, dim, vecs)
		if release != nil {
			release()
		}
		out <- frame
	case OpUpdate:
		table, id, raw, err := parseUpdateRequest(payload)
		if err != nil {
			fail(CodeBadRequest, err.Error())
			return
		}
		if err := s.Backend.UpdateRaw(table, id, raw); err != nil {
			failBackend(err)
			return
		}
		s.sendFrame(out, resp)
	case OpPing:
		s.sendFrame(out, resp)
	default:
		fail(CodeBadRequest, "unknown opcode")
	}
}

// sendFrame queues an empty-payload response.
func (s *Server) sendFrame(out chan<- *[]byte, h Header) {
	frame := getFrame()
	*frame = appendFrame((*frame)[:0], h, nil)
	out <- frame
}

func (s *Server) sendBackendError(out chan<- *[]byte, reqID uint64, withCRC bool, err error) {
	var werr *Error
	if errors.As(err, &werr) {
		s.sendError(out, reqID, withCRC, werr.Code, werr.Msg)
		return
	}
	s.sendError(out, reqID, withCRC, CodeInternal, err.Error())
}

func (s *Server) sendError(out chan<- *[]byte, reqID uint64, withCRC bool, code uint16, msg string) {
	s.errorFrames.Add(1)
	frame := getFrame()
	*frame = appendErrorFrame((*frame)[:0], reqID, withCRC, code, msg)
	out <- frame
}

// framePool recycles frame buffers: the read loop reads a request's payload
// into one, which its handler returns once it has served the request, and a
// handler encodes a response frame into one, which the writer returns once
// the frame is written to the connection.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame bounds the buffers kept for reuse, so one huge response
// does not pin its buffer for the life of the process.
const maxPooledFrame = 256 << 10

func getFrame() *[]byte { return framePool.Get().(*[]byte) }

func putFrame(frame *[]byte) {
	if cap(*frame) <= maxPooledFrame {
		framePool.Put(frame)
	}
}

// writeLoop drains queued response frames into the connection. Frames that
// pile up while a write is in progress go out together in the next write,
// one writev of the pooled frames themselves (no copy into a connection
// buffer), so a burst of multiplexed responses costs one syscall, while an
// isolated response is written immediately. After a write error it keeps
// draining (discarding) so handlers never block, and closes the conn so the
// read loop unblocks too.
func (s *Server) writeLoop(conn net.Conn, out <-chan *[]byte) {
	// pending is what WriteTo consumes: it escapes to the heap through the
	// connection's interface, so it is declared once, not per write.
	var (
		frames  []*[]byte
		iov     net.Buffers
		pending net.Buffers
		err     error
	)
	for frame := range out {
		frames = append(frames[:0], frame)
		open := true
	drain:
		for {
			select {
			case next, ok := <-out:
				if !ok {
					open = false
					break drain
				}
				frames = append(frames, next)
			default:
				break drain
			}
		}
		if err == nil {
			iov = iov[:0]
			for _, f := range frames {
				iov = append(iov, *f)
			}
			pending = iov // WriteTo consumes its receiver; iov keeps the array
			if _, err = pending.WriteTo(conn); err != nil {
				conn.Close()
			}
			clear(iov)
		}
		for i, f := range frames {
			putFrame(f)
			frames[i] = nil
		}
		if !open {
			return
		}
	}
}
