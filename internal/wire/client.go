package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/fp16"
)

// Options configure a Client.
type Options struct {
	// DialTimeout bounds connection establishment in Dial. Zero means no
	// timeout.
	DialTimeout time.Duration
	// CRC requests CRC32-C payload trailers on every frame in both
	// directions: the client appends them to requests and the server
	// mirrors the flag on responses, which the client then verifies.
	CRC bool
}

// clientReadBuffer is the size of a client's read buffer: a typical lookup
// response (up to ~90 64-dim fp16 vectors, 128 B each) fits whole, and a
// frame larger than the buffer is read straight into its payload.
const clientReadBuffer = 12 << 10

// Client is a bwp/1 client over one persistent connection. Calls from any
// number of goroutines are multiplexed by request id: frames from
// concurrent callers coalesce into shared writes, and a single reader
// goroutine routes responses back by id, so slow requests never block fast
// ones. After a transport error the client is dead (Err reports why) and
// every pending and future call fails; the caller reconnects with Dial.
type Client struct {
	conn net.Conn
	crc  bool

	// Frames to send queue in queued; the sender holding wmu writes every
	// frame queued by then in one writev (iov), so a burst of concurrent
	// calls costs one syscall and the client keeps no write buffer. out is
	// the writev's copy of iov, which WriteTo consumes: a field, because a
	// local the pointer-receiver WriteTo is called on escapes to the heap.
	qmu    sync.Mutex // guards queued
	queued net.Buffers
	wmu    sync.Mutex // guards iov, out, werr
	iov    net.Buffers
	out    net.Buffers
	werr   error

	// bufBytes is the reader's buffer while the reader runs (BufferBytes).
	bufBytes atomic.Int64

	mu      sync.Mutex
	pending map[uint64]*call
	closed  bool
	err     error

	nextID   atomic.Uint64
	readerWG sync.WaitGroup
}

type delivered struct {
	flags   byte
	payload []byte
}

// call is one round trip's record: the channel the reader delivers its
// response on (buffered, cap 1, so the reader never blocks). Records are
// pooled with their channels, so a call allocates neither. A record goes
// back to callPool only while no one else can touch its channel: after its
// caller received the one delivery, or after its caller removed its own
// pending entry (the reader had not taken it, so will never send). A record
// whose channel fail closed, or whose entry the reader took, is dropped.
type call struct {
	reply chan delivered
}

var callPool = sync.Pool{New: func() any { return &call{reply: make(chan delivered, 1)} }}

// Dial connects to a bwp server.
func Dial(addr string, opts Options) (*Client, error) {
	d := net.Dialer{Timeout: opts.DialTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts), nil
}

// NewClient wraps an established connection (any net.Conn, e.g. net.Pipe in
// tests) in a Client and starts its reader.
func NewClient(conn net.Conn, opts Options) *Client {
	c := &Client{
		conn:    conn,
		crc:     opts.CRC,
		pending: make(map[uint64]*call),
	}
	c.readerWG.Add(1)
	go func() {
		defer c.readerWG.Done()
		c.readLoop()
	}()
	return c
}

// Close tears the connection down. Pending calls fail with ErrClosed.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	c.readerWG.Wait()
	return nil
}

// BufferBytes is the heap the client's connection buffers hold: its read
// buffer while the connection is open, 0 once it is closed.
func (c *Client) BufferBytes() int64 { return c.bufBytes.Load() }

// Err returns the error that killed the client, or nil while it is usable.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail marks the client dead, wakes every pending call and closes the
// connection. The first cause wins; later calls are no-ops.
func (c *Client) fail(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = cause
	for id, cl := range c.pending {
		close(cl.reply)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	c.conn.Close()
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, clientReadBuffer)
	c.bufBytes.Store(int64(br.Size()))
	defer c.bufBytes.Store(0)
	var hdr [HeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		h, err := parseHeader(hdr[:])
		if err != nil {
			c.fail(err)
			return
		}
		payload := make([]byte, h.Len)
		if _, err := io.ReadFull(br, payload); err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		if h.Flags&FlagCRC != 0 {
			var tr [4]byte
			if _, err := io.ReadFull(br, tr[:]); err != nil {
				c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
				return
			}
			if binary.LittleEndian.Uint32(tr[:]) != Checksum(payload) {
				c.fail(ErrBadCRC)
				return
			}
		}
		c.mu.Lock()
		cl := c.pending[h.ReqID]
		delete(c.pending, h.ReqID)
		c.mu.Unlock()
		if cl != nil {
			// Buffered (cap 1) and delivered at most once: never blocks.
			cl.reply <- delivered{flags: h.Flags, payload: payload}
		}
		// Unknown request id: a response to a call the caller abandoned
		// (context cancelled). Dropped on the floor by design.
	}
}

// send writes one frame, which the caller must not touch again. Concurrent
// senders coalesce: each queues its frame, then waits for the write lock, and
// whoever takes it writes every frame queued by then in one writev. A sender
// whose frame an earlier holder already wrote has nothing left to do, so a
// frame is on the wire by the time its send returns, and nothing waits in a
// buffer while the line is idle.
func (c *Client) send(frame []byte) error {
	c.qmu.Lock()
	c.queued = append(c.queued, frame)
	c.qmu.Unlock()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	c.qmu.Lock()
	c.iov, c.queued = c.queued, c.iov[:0]
	c.qmu.Unlock()
	if len(c.iov) == 0 {
		return nil
	}
	c.out = c.iov // WriteTo consumes its receiver; iov keeps the array
	_, err := c.out.WriteTo(c.conn)
	clear(c.iov)
	if err != nil {
		c.werr = err
		c.fail(err)
	}
	return err
}

// requestPool recycles request frame buffers. It is not the server's
// framePool: a process that runs both would trade its small request buffers
// for the server's large response buffers, which would then be regrown.
var requestPool = sync.Pool{New: func() any { return new([]byte) }}

// newRequest returns a pooled request frame buffer: its header reserved,
// and room behind it for a payload of n bytes and the CRC trailer. The
// caller appends the payload and roundTrip seals the frame in place and
// recycles the buffer once it is on the wire (putRequest).
func newRequest(n int) *[]byte {
	frame := requestPool.Get().(*[]byte)
	if cap(*frame) < HeaderLen+n+4 {
		*frame = make([]byte, HeaderLen, HeaderLen+n+4)
	}
	*frame = (*frame)[:HeaderLen]
	return frame
}

func putRequest(frame *[]byte) {
	if cap(*frame) <= maxPooledFrame {
		requestPool.Put(frame)
	}
}

// roundTrip seals frame — a newRequest buffer with its payload appended —
// as one request, sends it and waits for the response payload.
func (c *Client) roundTrip(ctx context.Context, opcode byte, frame *[]byte) ([]byte, error) {
	id := c.nextID.Add(1)
	cl := callPool.Get().(*call)
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		callPool.Put(cl)
		putRequest(frame)
		return nil, err
	}
	c.pending[id] = cl
	c.mu.Unlock()

	h := Header{Opcode: opcode, ReqID: id}
	if c.crc {
		h.Flags = FlagCRC
	}
	*frame = sealFrame(*frame, 0, h)
	if err := c.send(*frame); err != nil {
		// The frame may still be queued, so it is not recycled.
		c.abandon(id, cl)
		return nil, err
	}
	// send came back, so the frame is on the wire.
	putRequest(frame)

	select {
	case d, ok := <-cl.reply:
		if !ok {
			return nil, c.Err()
		}
		callPool.Put(cl)
		if d.flags&FlagError != 0 {
			return nil, parseError(d.payload)
		}
		return d.payload, nil
	case <-ctx.Done():
		c.abandon(id, cl)
		return nil, ctx.Err()
	}
}

// abandon withdraws call id, which will not wait for its response. Its
// record is recycled only if its pending entry was still there to remove:
// otherwise the reader took it and still owns the send, or fail closed the
// channel.
func (c *Client) abandon(id uint64, cl *call) {
	c.mu.Lock()
	mine := c.pending[id] == cl
	if mine {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if mine {
		callPool.Put(cl)
	}
}

// LookupBatchRaw resolves ids to their fp16 encodings. The returned views
// share one contiguous response buffer owned by the caller.
func (c *Client) LookupBatchRaw(ctx context.Context, table string, ids []uint32) (dim int, vecs [][]byte, err error) {
	req := newRequest(2 + len(table) + 4 + 4*len(ids))
	*req = appendLookupRequest(*req, table, ids)
	resp, err := c.roundTrip(ctx, OpLookup, req)
	if err != nil {
		return 0, nil, err
	}
	return parseLookupResponse(resp, len(ids))
}

// LookupBatchF32 resolves ids and decodes the fp16 response to float32.
// All vectors share one backing array, decoded with a single bulk
// fp16.DecodeSlice pass over the contiguous response payload.
func (c *Client) LookupBatchF32(ctx context.Context, table string, ids []uint32) ([][]float32, error) {
	req := newRequest(2 + len(table) + 4 + 4*len(ids))
	*req = appendLookupRequest(*req, table, ids)
	resp, err := c.roundTrip(ctx, OpLookup, req)
	if err != nil {
		return nil, err
	}
	dim, _, err := parseLookupResponse(resp, len(ids))
	if err != nil {
		return nil, err
	}
	flat := make([]float32, len(ids)*dim)
	fp16.DecodeSlice(flat, resp[lookupResponseHeaderLen:])
	out := make([][]float32, len(ids))
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out, nil
}

// Update overwrites id in table with raw fp16 bytes.
func (c *Client) Update(ctx context.Context, table string, id uint32, raw []byte) error {
	req := newRequest(2 + len(table) + 4 + len(raw))
	*req = appendUpdateRequest(*req, table, id, raw)
	_, err := c.roundTrip(ctx, OpUpdate, req)
	return err
}

// UpdateF32 encodes vec to fp16 and updates id in table.
func (c *Client) UpdateF32(ctx context.Context, table string, id uint32, vec []float32) error {
	return c.Update(ctx, table, id, fp16.EncodeSlice(make([]byte, 0, len(vec)*fp16.ByteSize), vec))
}

// Ping round-trips an empty frame, verifying liveness and protocol accord.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, OpPing, newRequest(0))
	return err
}
