// Package wire implements bwp/1, bandana's binary wire protocol.
//
// bwp is the node-to-node and client-to-node serving protocol: batch-native
// lookup and update frames carrying fp16 payloads end-to-end, so a router can
// forward raw vector bytes from a node's DRAM cache to its caller without a
// float64 JSON round-trip. Frames are length-prefixed and multiplexed by
// request id over persistent connections; responses may arrive out of order.
//
// Frame layout (all integers little-endian):
//
//	offset width  field
//	0      4      magic "BWP1"
//	4      1      version (1)
//	5      1      opcode
//	6      1      flags (bit0: CRC32-C trailer, bit1: error response)
//	7      1      reserved (must be zero)
//	8      8      request id (echoed verbatim in the response)
//	16     4      payload length
//	20     ...    payload
//	...    4      CRC32-C of the payload (present iff flags bit0 is set)
//
// Payloads by opcode:
//
//	OpLookup request:   u16 tableLen | table | u32 count | count x u32 id
//	OpLookup response:  u16 dim | u32 count | count*dim*2 bytes of fp16
//	OpUpdate request:   u16 tableLen | table | u32 id | dim*2 bytes of fp16
//	OpUpdate response:  empty
//	OpPing:             empty both ways
//	error response:     u16 code | u16 msgLen | msg (flags bit1 set)
//
// Versioning: the version byte is checked on every frame. A peer that
// receives an unsupported version answers with an error frame (CodeBadRequest)
// carrying version 1 and closes the connection. Unknown opcodes and unknown
// flag bits are rejected per-frame with CodeBadRequest but keep the
// connection open, so minor additions can probe without reconnecting.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

const (
	// Version is the protocol version spoken by this package.
	Version = 1

	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 20

	// MaxPayload bounds a single frame's payload. 8 MiB fits a batch of
	// 8192 ids of 256-dim fp16 vectors (8192*256*2 = 4 MiB) with headroom.
	MaxPayload = 8 << 20

	// DefaultMaxBatch is the per-request id cap a server enforces unless
	// configured otherwise. It matches the HTTP API's batch cap.
	DefaultMaxBatch = 8192

	// MaxTableName bounds the table-name field in request payloads.
	MaxTableName = 255
)

// magic is "BWP1" read as a little-endian uint32.
const magic uint32 = 'B' | 'W'<<8 | 'P'<<16 | '1'<<24

// Opcodes.
const (
	OpLookup byte = 1
	OpUpdate byte = 2
	OpPing   byte = 3
)

// Flag bits.
const (
	// FlagCRC marks a frame whose payload is followed by a 4-byte CRC32-C
	// trailer. Servers verify it on requests and mirror it on responses.
	FlagCRC byte = 1 << 0
	// FlagError marks a response frame whose payload is an error record.
	FlagError byte = 1 << 1

	knownFlags = FlagCRC | FlagError
)

// Error codes carried in error response frames.
const (
	CodeBadRequest uint16 = 1
	CodeNotFound   uint16 = 2
	CodeTooLarge   uint16 = 3
	CodeInternal   uint16 = 4
)

// Framing errors. These mean the byte stream itself is broken; the
// connection is not usable afterwards.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrTooLarge   = errors.New("wire: frame exceeds max payload")
	ErrBadCRC     = errors.New("wire: payload CRC mismatch")
	ErrClosed     = errors.New("wire: connection closed")
)

// castagnoli is the CRC32-C table used for the optional payload trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32-C trailer value for a payload.
func Checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// Error is a protocol-level failure returned by the remote peer in an error
// frame. It is distinct from transport errors: the connection stays usable.
type Error struct {
	Code uint16
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Msg)
}

// Header is a decoded frame header.
type Header struct {
	Opcode byte
	Flags  byte
	ReqID  uint64
	Len    uint32
}

// putHeader encodes h into dst, which must be at least HeaderLen bytes.
func putHeader(dst []byte, h Header) {
	binary.LittleEndian.PutUint32(dst[0:], magic)
	dst[4] = Version
	dst[5] = h.Opcode
	dst[6] = h.Flags
	dst[7] = 0
	binary.LittleEndian.PutUint64(dst[8:], h.ReqID)
	binary.LittleEndian.PutUint32(dst[16:], h.Len)
}

// parseHeader decodes and validates a frame header. ErrBadMagic and
// ErrBadVersion invalidate the whole stream; ErrTooLarge does too, because
// the payload cannot be skipped safely once the peer is known to disagree
// about limits.
func parseHeader(b []byte) (Header, error) {
	if binary.LittleEndian.Uint32(b[0:]) != magic {
		return Header{}, ErrBadMagic
	}
	if b[4] != Version {
		return Header{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, b[4], Version)
	}
	h := Header{
		Opcode: b[5],
		Flags:  b[6],
		ReqID:  binary.LittleEndian.Uint64(b[8:]),
		Len:    binary.LittleEndian.Uint32(b[16:]),
	}
	if h.Len > MaxPayload {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, h.Len)
	}
	return h, nil
}

// appendFrame appends a complete frame (header, payload, optional CRC
// trailer) to dst and returns the extended slice.
func appendFrame(dst []byte, h Header, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	return sealFrame(append(dst, payload...), start, h)
}

// sealFrame completes the frame that begins at frame[start] and runs to the
// end of frame: its first HeaderLen bytes become h's header, sized for the
// payload behind them, and the CRC trailer is appended when h asks for one.
// A payload encoded straight behind a reserved header is thus framed
// without being copied again.
func sealFrame(frame []byte, start int, h Header) []byte {
	payload := frame[start+HeaderLen:]
	h.Len = uint32(len(payload))
	putHeader(frame[start:], h)
	if h.Flags&FlagCRC != 0 {
		var tr [4]byte
		binary.LittleEndian.PutUint32(tr[:], Checksum(payload))
		frame = append(frame, tr[:]...)
	}
	return frame
}

// appendErrorFrame appends an error response frame for reqID to dst.
func appendErrorFrame(dst []byte, reqID uint64, withCRC bool, code uint16, msg string) []byte {
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	payload := make([]byte, 4+len(msg))
	binary.LittleEndian.PutUint16(payload[0:], code)
	binary.LittleEndian.PutUint16(payload[2:], uint16(len(msg)))
	copy(payload[4:], msg)
	flags := FlagError
	if withCRC {
		flags |= FlagCRC
	}
	return appendFrame(dst, Header{Opcode: 0, Flags: flags, ReqID: reqID}, payload)
}

// parseError decodes an error response payload.
func parseError(payload []byte) *Error {
	if len(payload) < 4 {
		return &Error{Code: CodeInternal, Msg: "malformed error frame"}
	}
	code := binary.LittleEndian.Uint16(payload[0:])
	n := int(binary.LittleEndian.Uint16(payload[2:]))
	if n > len(payload)-4 {
		n = len(payload) - 4
	}
	return &Error{Code: code, Msg: string(payload[4 : 4+n])}
}

// appendLookupRequest appends the OpLookup request payload for table/ids.
func appendLookupRequest(dst []byte, table string, ids []uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(table)))
	dst = append(dst, b[:2]...)
	dst = append(dst, table...)
	binary.LittleEndian.PutUint32(b[:], uint32(len(ids)))
	dst = append(dst, b[:4]...)
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[:], id)
		dst = append(dst, b[:4]...)
	}
	return dst
}

// parseLookupRequest decodes an OpLookup request payload, appending the ids
// to dst. The table name aliases payload; the ids are copied out of it.
func parseLookupRequest(payload []byte, dst []uint32) (table []byte, ids []uint32, err error) {
	if len(payload) < 2 {
		return nil, dst, errors.New("lookup request truncated")
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[0:]))
	if nameLen > MaxTableName || len(payload) < 2+nameLen+4 {
		return nil, dst, errors.New("lookup request truncated")
	}
	table = payload[2 : 2+nameLen]
	p := payload[2+nameLen:]
	count := int(binary.LittleEndian.Uint32(p[0:]))
	p = p[4:]
	if len(p) != 4*count {
		return nil, dst, fmt.Errorf("lookup request: %d ids declared, %d bytes of ids", count, len(p))
	}
	ids = slices.Grow(dst, count)
	for i := range count {
		ids = append(ids, binary.LittleEndian.Uint32(p[4*i:]))
	}
	return table, ids, nil
}

// appendUpdateRequest appends the OpUpdate request payload.
func appendUpdateRequest(dst []byte, table string, id uint32, raw []byte) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(table)))
	dst = append(dst, b[:2]...)
	dst = append(dst, table...)
	binary.LittleEndian.PutUint32(b[:], id)
	dst = append(dst, b[:4]...)
	return append(dst, raw...)
}

// parseUpdateRequest decodes an OpUpdate request payload. raw aliases
// payload.
func parseUpdateRequest(payload []byte) (table string, id uint32, raw []byte, err error) {
	if len(payload) < 2 {
		return "", 0, nil, errors.New("update request truncated")
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[0:]))
	if nameLen > MaxTableName || len(payload) < 2+nameLen+4 {
		return "", 0, nil, errors.New("update request truncated")
	}
	table = string(payload[2 : 2+nameLen])
	p := payload[2+nameLen:]
	id = binary.LittleEndian.Uint32(p[0:])
	return table, id, p[4:], nil
}

// lookupResponseHeaderLen is the fixed prefix of an OpLookup response
// payload: u16 dim + u32 count.
const lookupResponseHeaderLen = 6

// appendLookupResponse appends the OpLookup response payload: the dim/count
// prefix followed by each vector's fp16 bytes, concatenated.
func appendLookupResponse(dst []byte, dim int, vecs [][]byte) []byte {
	var b [6]byte
	binary.LittleEndian.PutUint16(b[0:], uint16(dim))
	binary.LittleEndian.PutUint32(b[2:], uint32(len(vecs)))
	dst = append(dst, b[:]...)
	for _, v := range vecs {
		dst = append(dst, v...)
	}
	return dst
}

// appendLookupFrame appends a complete OpLookup response frame carrying
// vecs, each vector's bytes copied once, into the payload behind the header.
func appendLookupFrame(dst []byte, h Header, dim int, vecs [][]byte) []byte {
	dst = slices.Grow(dst, HeaderLen+lookupResponseHeaderLen+len(vecs)*dim*2+4)
	start := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	return sealFrame(appendLookupResponse(dst, dim, vecs), start, h)
}

// parseLookupResponse decodes an OpLookup response payload into per-id raw
// fp16 views. The views alias payload.
func parseLookupResponse(payload []byte, wantCount int) (dim int, vecs [][]byte, err error) {
	if len(payload) < lookupResponseHeaderLen {
		return 0, nil, errors.New("lookup response truncated")
	}
	dim = int(binary.LittleEndian.Uint16(payload[0:]))
	count := int(binary.LittleEndian.Uint32(payload[2:]))
	if count != wantCount {
		return 0, nil, fmt.Errorf("lookup response: got %d vectors, want %d", count, wantCount)
	}
	body := payload[lookupResponseHeaderLen:]
	vecBytes := dim * 2
	if len(body) != count*vecBytes {
		return 0, nil, fmt.Errorf("lookup response: %d payload bytes, want %d", len(body), count*vecBytes)
	}
	vecs = make([][]byte, count)
	for i := range vecs {
		vecs[i] = body[i*vecBytes : (i+1)*vecBytes : (i+1)*vecBytes]
	}
	return dim, vecs, nil
}
