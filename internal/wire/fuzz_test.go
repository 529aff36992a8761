package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzWireRequest feeds arbitrary bytes through the server's request path:
// header, payload, then the lookup and the update request parsers (the
// opcode only picks which one readLoop runs, so both see every payload). An
// accepted request must be exactly what its bytes say: a table name of at
// most MaxTableName bytes, four payload bytes per id and none left over, and
// an update's raw vector the payload's tail, not memory past it.
func FuzzWireRequest(f *testing.F) {
	f.Add(appendFrame(nil, Header{Opcode: OpLookup, ReqID: 1}, appendLookupRequest(nil, "table1", []uint32{1, 7, 42})))
	f.Add(appendFrame(nil, Header{Opcode: OpLookup, Flags: FlagCRC, ReqID: 2}, appendLookupRequest(nil, "t", nil)))
	f.Add(appendFrame(nil, Header{Opcode: OpUpdate, ReqID: 3}, appendUpdateRequest(nil, "table2", 9, []byte{0, 0x3c, 0, 0x40})))
	f.Add(appendFrame(nil, Header{Opcode: OpUpdate, Flags: FlagCRC, ReqID: 4}, appendUpdateRequest(nil, strings.Repeat("x", MaxTableName), 0, nil)))
	f.Add(appendFrame(nil, Header{Opcode: OpPing, ReqID: 5}, nil))

	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) < HeaderLen {
			return
		}
		h, err := parseHeader(frame[:HeaderLen])
		if err != nil {
			return
		}
		if uint64(len(frame)-HeaderLen) < uint64(h.Len) {
			return // the stream ended inside the payload
		}
		payload := frame[HeaderLen : HeaderLen+int(h.Len) : HeaderLen+int(h.Len)]
		if table, ids, err := parseLookupRequest(payload, nil); err == nil {
			if len(table) > MaxTableName || 2+len(table)+4+4*len(ids) != len(payload) {
				t.Fatalf("%d-byte lookup payload parsed to a %d-byte table name and %d ids", len(payload), len(table), len(ids))
			}
		}
		if table, _, raw, err := parseUpdateRequest(payload); err == nil {
			if len(table) > MaxTableName || 2+len(table)+4+len(raw) != len(payload) {
				t.Fatalf("%d-byte update payload parsed to a %d-byte table name and %d raw bytes", len(payload), len(table), len(raw))
			}
			if len(raw) > 0 && (&raw[len(raw)-1] != &payload[len(payload)-1] || cap(raw) != len(raw)) {
				t.Fatal("raw vector is not the payload's tail")
			}
		}
	})
}

// FuzzWireResponse feeds arbitrary bytes through the client's response path
// in readLoop's order: header, payload, optional CRC trailer, then the error
// record or the lookup response. The router forwards the views
// parseLookupResponse returns without ever decoding them, so beyond "never
// panics" each view must be exactly 2*dim bytes of the payload it was cut
// from, capped so an append cannot run into its neighbour.
func FuzzWireResponse(f *testing.F) {
	vec := func(b byte) []byte {
		v := make([]byte, 8)
		for i := range v {
			v[i] = b + byte(i)
		}
		return v
	}
	resp := appendLookupResponse(nil, 4, [][]byte{vec(1), vec(9), vec(17)})
	f.Add(appendFrame(nil, Header{Opcode: OpLookup, ReqID: 7}, resp), uint16(3))
	f.Add(appendFrame(nil, Header{Opcode: OpLookup, Flags: FlagCRC, ReqID: 8}, resp), uint16(3))
	f.Add(appendFrame(nil, Header{Opcode: OpLookup, ReqID: 9}, resp), uint16(2)) // count mismatch
	f.Add(appendFrame(nil, Header{Opcode: OpLookup, ReqID: 10}, appendLookupResponse(nil, 0, make([][]byte, 5))), uint16(5))
	f.Add(appendErrorFrame(nil, 11, false, CodeNotFound, "unknown table \"t9\""), uint16(1))
	f.Add(appendErrorFrame(nil, 12, true, CodeTooLarge, ""), uint16(0))
	f.Add(appendFrame(nil, Header{Opcode: OpPing, ReqID: 13}, nil), uint16(0))

	f.Fuzz(func(t *testing.T, frame []byte, wantCount uint16) {
		if len(frame) < HeaderLen {
			return
		}
		h, err := parseHeader(frame[:HeaderLen])
		if err != nil {
			return
		}
		rest := frame[HeaderLen:]
		if uint64(len(rest)) < uint64(h.Len) {
			return // the stream ended inside the payload
		}
		payload, rest := rest[:h.Len:h.Len], rest[h.Len:]
		if h.Flags&FlagCRC != 0 && (len(rest) < 4 || binary.LittleEndian.Uint32(rest) != Checksum(payload)) {
			return
		}
		if h.Flags&FlagError != 0 {
			// A record too short to hold code and length reads as CodeInternal.
			if e := parseError(payload); len(payload) >= 4 && !bytes.HasPrefix(payload[4:], []byte(e.Msg)) {
				t.Fatalf("error message %q is not the payload's", e.Msg)
			}
			return
		}
		dim, vecs, err := parseLookupResponse(payload, int(wantCount))
		if err != nil {
			if vecs != nil {
				t.Fatalf("views returned beside error %v", err)
			}
			return
		}
		if len(vecs) != int(wantCount) {
			t.Fatalf("%d views, want %d", len(vecs), wantCount)
		}
		for i, v := range vecs {
			if len(v) != 2*dim || cap(v) != len(v) {
				t.Fatalf("view %d: len %d cap %d, dim %d", i, len(v), cap(v), dim)
			}
			if off := lookupResponseHeaderLen + i*2*dim; dim > 0 && &v[0] != &payload[off] {
				t.Fatalf("view %d does not start at payload offset %d", i, off)
			}
		}
	})
}
