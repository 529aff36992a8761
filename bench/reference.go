package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// reference is a fixed piece of work that belongs to the benchmark, not to
// the product: client/server pairs ping-pong over loopback TCP, and the
// server builds each 6 KB reply by copying 128-byte pieces from pseudo-random
// places of a 64 MB array — the shape of a hot batch lookup (a socket round
// trip plus scattered memory reads) with no product code in it.
//
// It exists because the box is a shared VM whose speed moves by tens of per
// cent over seconds to minutes (steal time, neighbours in the caches). Run in
// slices between the windows of the closed loop, the reference's round trips
// per second tracked the closed loop's throughput with a correlation of
// 0.83-0.90 across runs on every workload, so dividing that speed out halved
// the run-to-run spread of every timing metric (README, Reproducibility).
type reference struct {
	ln    net.Listener
	conns []net.Conn
	mem   []byte
}

const (
	refRequestBytes = 200
	refReplyBytes   = 6016 // 47 pieces: the mean batch
	refPieceBytes   = 128
	// refNominalPerS is the reference's speed on the reference box when it is
	// quiet (two pairs, two cores). Timing metrics are reported as they would
	// read at this speed.
	refNominalPerS = 88000.0
)

func newReference(pairs int) (*reference, error) {
	r := &reference{mem: make([]byte, 64<<20)}
	for i := range r.mem {
		r.mem[i] = byte(i)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.ln = ln
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go r.serve(c)
		}
	}()
	for i := 0; i < pairs; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

func (r *reference) serve(c net.Conn) {
	defer c.Close()
	req, reply := make([]byte, refRequestBytes), make([]byte, refReplyBytes)
	for {
		if _, err := io.ReadFull(c, req); err != nil {
			return
		}
		x := binary.LittleEndian.Uint64(req)
		for off := 0; off < refReplyBytes; off += refPieceBytes {
			x = x*6364136223846793005 + 1442695040888963407
			at := int(x>>20) % (len(r.mem) - refPieceBytes)
			copy(reply[off:], r.mem[at:at+refPieceBytes])
		}
		if _, err := c.Write(reply); err != nil {
			return
		}
	}
}

// run ping-pongs on every pair for d and returns round trips per second.
func (r *reference) run(d time.Duration) (float64, error) {
	var wg sync.WaitGroup
	counts := make([]int, len(r.conns))
	errs := make([]error, len(r.conns))
	start := time.Now()
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			req, reply := make([]byte, refRequestBytes), make([]byte, refReplyBytes)
			for time.Since(start) < d {
				binary.LittleEndian.PutUint64(req, uint64(counts[i])*7919+uint64(i))
				if _, errs[i] = c.Write(req); errs[i] != nil {
					return
				}
				if _, errs[i] = io.ReadFull(c, reply); errs[i] != nil {
					return
				}
				counts[i]++
			}
		}(i, c)
	}
	wg.Wait()
	n := 0
	for i, c := range counts {
		if errs[i] != nil {
			return 0, fmt.Errorf("reference: %w", errs[i])
		}
		n += c
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// close ends the reference; its server goroutines exit as their connections
// close.
func (r *reference) close() {
	r.ln.Close()
	for _, c := range r.conns {
		c.Close()
	}
}
