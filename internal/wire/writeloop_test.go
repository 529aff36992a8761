package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// TestWriteLoopPipelinedFramesIntactInOrder queues a long burst of pooled
// response frames of varied sizes on one connection's writer while the
// client reads slowly at first, so the writer gathers many frames into one
// write and recycles each into the pool the producer draws the next from.
// Every frame must arrive whole, in queue order, with its own bytes: a
// frame returned to the pool before its write finished would show up as
// another frame's bytes here, or as a race under -race.
func TestWriteLoopPipelinedFramesIntactInOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- conn
	}()
	client, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srvConn, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer srvConn.Close()
	client.SetDeadline(time.Now().Add(30 * time.Second))

	const frames = 3000
	payloadOf := func(k int) []byte {
		p := make([]byte, 1+(k*131)%5000)
		for i := range p {
			p[i] = byte(k + i)
		}
		return p
	}
	headerOf := func(k int) Header {
		h := Header{Opcode: OpLookup, ReqID: uint64(k)*7919 + 1}
		if k%3 == 0 {
			h.Flags = FlagCRC
		}
		return h
	}

	var s Server
	out := make(chan *[]byte, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.writeLoop(srvConn, out)
	}()
	go func() {
		for k := range frames {
			frame := getFrame()
			*frame = appendFrame((*frame)[:0], headerOf(k), payloadOf(k))
			out <- frame
		}
		close(out)
	}()

	time.Sleep(20 * time.Millisecond) // let frames pile up behind the first writes
	for k := range frames {
		var hdr [HeaderLen]byte
		if _, err := io.ReadFull(client, hdr[:]); err != nil {
			t.Fatalf("frame %d: reading header: %v", k, err)
		}
		h, err := parseHeader(hdr[:])
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		want := headerOf(k)
		if h.ReqID != want.ReqID || h.Opcode != want.Opcode || h.Flags != want.Flags {
			t.Fatalf("frame %d arrived with header %+v, want %+v", k, h, want)
		}
		payload := make([]byte, h.Len)
		if _, err := io.ReadFull(client, payload); err != nil {
			t.Fatalf("frame %d: reading payload: %v", k, err)
		}
		if !bytes.Equal(payload, payloadOf(k)) {
			t.Fatalf("frame %d: payload of %d bytes is not the one queued", k, len(payload))
		}
		if h.Flags&FlagCRC != 0 {
			var tr [4]byte
			if _, err := io.ReadFull(client, tr[:]); err != nil {
				t.Fatalf("frame %d: reading CRC trailer: %v", k, err)
			}
			if binary.LittleEndian.Uint32(tr[:]) != Checksum(payload) {
				t.Fatalf("frame %d: CRC trailer does not match its payload", k)
			}
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer did not return after its queue closed")
	}
}
