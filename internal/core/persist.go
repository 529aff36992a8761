package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"bandana/internal/cache"
	"bandana/internal/datadir"
	"bandana/internal/layout"
	"bandana/internal/sim"
)

// Training a store (SHP partitioning + threshold tuning) is expensive and in
// production happens offline, on a schedule decoupled from serving. SaveState
// and LoadState persist the trained state — per-table placement order, the
// threshold policy's verdicts (two bits per vector, and a third for a
// pinned table), the two admission thresholds (with the tuner's prediction for them)
// and cache allocation — so
// that a freshly opened store can adopt a previous training run without
// repeating it.

const stateMagic = "BNDSTATE"

// stateVersion 7 is what SaveState writes: per table the placement order; a
// verdicts flag — 0 none, 1 the threshold policy's verdicts (the prefetch and
// the probation bitset, ⌈n/64⌉ little-endian words each, bit id of word id/64
// — id order, whatever the layout), 2 a pin verdict (those two, the pinned
// bitset, and its ids once each as varints in warm order: the order an
// install fills them into the cache) — and with verdicts their prefetch
// queue position (float64 bits);
// the prefetch threshold, demand threshold, prefetch flag, cache allocation
// and the tuner's prediction for the verdict it chose (hit ratio and lookups
// per block read, as float64 bits); then a CRC-32C trailer over the whole
// payload so a corrupted-but-decodable file (e.g. bit rot flipping a varint
// into another valid permutation) fails loudly at load instead of silently
// serving wrong vectors after a reopen. A pinned table pins exactly its
// cache allocation's worth of ids.
//
// Version 6 is version 7 without the warm order, so it still decodes, a pin
// verdict warming in id order. Version 5 is version 6 without the pin
// verdict, so it decodes as unpinned. Version 4 does too: it holds the
// per-vector access counts where 5 holds the verdicts (and no position);
// they are compiled once, into the installed layout's order, and dropped.
// Versions 1–3 are refused.
const (
	stateVersion   = 7
	stateVersionV6 = 6
	stateVersionV5 = 5
	stateVersionV4 = 4
)

// The verdicts flag of a version-5, -6 or -7 table.
const (
	noVerdicts        = 0
	thresholdVerdicts = 1
	pinVerdict        = 2 // version 6 on
)

// SaveState serialises the store's trained state (placements, threshold
// verdicts, thresholds, cache allocations). Embedding values are not
// included: they belong to the model checkpoint, not to Bandana. The
// verdicts are written in id order, read off the layout-order bits the table
// serves from.
func (s *Store) SaveState(w io.Writer) error {
	h := crc32.New(datadir.Castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, h), 1<<20)
	buf := make([]byte, binary.MaxVarintLen64)
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf, v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeString := func(str string) error {
		if err := writeUvarint(uint64(len(str))); err != nil {
			return err
		}
		_, err := bw.WriteString(str)
		return err
	}
	if _, err := bw.WriteString(stateMagic); err != nil {
		return err
	}
	if err := writeUvarint(stateVersion); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(s.tables))); err != nil {
		return err
	}
	for _, st := range s.tables {
		state := st.loadState()
		name := st.name
		order := state.layout.Order()
		l := state.layout
		verdicts := state.admit.permuted(len(order), func(id int) int { return l.PositionOf(uint32(id)) })
		threshold := state.threshold
		demandThreshold := state.demandThreshold
		prefetch := state.prefetch
		cacheCap := state.cacheCap

		if err := writeString(name); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(order))); err != nil {
			return err
		}
		for _, id := range order {
			if err := writeUvarint(uint64(id)); err != nil {
				return err
			}
		}
		if verdicts == nil {
			if err := writeUvarint(noVerdicts); err != nil {
				return err
			}
		} else {
			flag := uint64(thresholdVerdicts)
			if verdicts.pinned != nil {
				flag = pinVerdict
			}
			if err := writeUvarint(flag); err != nil {
				return err
			}
			// A threshold verdict's pinned set and warm order are nil: it
			// writes neither.
			for _, words := range [][]uint64{verdicts.prefetch, verdicts.probation, verdicts.pinned} {
				for _, w := range words {
					binary.LittleEndian.PutUint64(buf[:8], w)
					if _, err := bw.Write(buf[:8]); err != nil {
						return err
					}
				}
			}
			for _, id := range verdicts.warm {
				if err := writeUvarint(uint64(id)); err != nil {
					return err
				}
			}
			if err := writeUvarint(math.Float64bits(verdicts.position)); err != nil {
				return err
			}
		}
		if err := writeUvarint(uint64(threshold)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(demandThreshold)); err != nil {
			return err
		}
		var pf uint64
		if prefetch {
			pf = 1
		}
		if err := writeUvarint(pf); err != nil {
			return err
		}
		if err := writeUvarint(uint64(cacheCap)); err != nil {
			return err
		}
		for _, f := range []float64{state.predicted.HitRate, state.predicted.LookupsPerBlockRead} {
			if err := writeUvarint(math.Float64bits(f)); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// CRC-32C trailer over the whole payload, written past the hashed
	// stream itself.
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	_, err := w.Write(crc[:])
	return err
}

// crcByteReader hashes exactly the bytes the decoder consumes (a bufio
// reader would read ahead and hash the trailer too).
type crcByteReader struct {
	br *bufio.Reader
	h  hash.Hash32
}

func (c *crcByteReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.h.Write(p[:n])
	return n, err
}

func (c *crcByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.h.Write([]byte{b})
	}
	return b, err
}

// savedTable is one table's decoded trained state. Its threshold policy is
// verdicts, in id order (versions 5 and 6), or the counts to compile it from
// (version 4); both are nil when the table had none.
type savedTable struct {
	name            string
	order           []uint32
	verdicts        *admitBits
	counts          []uint32
	threshold       uint32
	demandThreshold uint32
	prefetch        bool
	cacheCap        int
	predicted       sim.Prediction
}

// decodeSavedStates parses a SaveState stream into per-table entries without
// reference to any live store (the caller validates geometry).
func decodeSavedStates(r io.Reader) ([]savedTable, error) {
	raw := bufio.NewReaderSize(r, 1<<20)
	br := &crcByteReader{br: raw, h: crc32.New(datadir.Castagnoli)}
	magic := make([]byte, len(stateMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: read state header: %w", err)
	}
	if string(magic) != stateMagic {
		return nil, fmt.Errorf("core: bad state magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version < stateVersionV4 || version > stateVersion {
		return nil, fmt.Errorf("core: unsupported state version %d", version)
	}
	numTables, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if numTables > 1<<16 {
		return nil, fmt.Errorf("core: implausible table count %d", numTables)
	}
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > 1<<16 {
			return "", fmt.Errorf("core: implausible string length %d", n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	saved := make([]savedTable, 0, min(numTables, 1<<8)) // capped like the lengths below
	for ti := 0; ti < int(numTables); ti++ {
		var sv savedTable
		sv.name, err = readString()
		if err != nil {
			return nil, err
		}
		orderLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if orderLen > 1<<32 {
			return nil, fmt.Errorf("core: table %q: implausible order length %d", sv.name, orderLen)
		}
		// Length claims from the wire are untrusted: cap the up-front
		// allocation and let append grow the real thing, so a corrupt file
		// fails at EOF instead of forcing a multi-GiB allocation first.
		sv.order = make([]uint32, 0, min(orderLen, 1<<16))
		for j := uint64(0); j < orderLen; j++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			sv.order = append(sv.order, uint32(v))
		}
		var counts []uint32 // v4
		if version == stateVersionV4 {
			if counts, err = readCounts(br, sv.name, orderLen); err != nil {
				return nil, err
			}
		} else {
			flag, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if flag > pinVerdict || (flag == pinVerdict && version == stateVersionV5) {
				return nil, fmt.Errorf("core: table %q: bad verdicts flag %d", sv.name, flag)
			}
			if flag != noVerdicts {
				if sv.verdicts, err = readVerdicts(br, sv.name, orderLen, flag == pinVerdict, version >= stateVersion); err != nil {
					return nil, err
				}
			}
		}
		threshold, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		sv.threshold = uint32(threshold)
		demandThreshold, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		sv.demandThreshold = uint32(demandThreshold)
		prefetch, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		sv.prefetch = prefetch == 1
		cacheCap, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		sv.cacheCap = int(cacheCap)
		for _, f := range []*float64{&sv.predicted.HitRate, &sv.predicted.LookupsPerBlockRead} {
			bits, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			*f = math.Float64frombits(bits)
			if math.IsNaN(*f) || math.IsInf(*f, 0) || *f < 0 {
				return nil, fmt.Errorf("core: table %q: implausible prediction %v", sv.name, *f)
			}
		}
		if v := sv.verdicts; v != nil && v.pinned != nil {
			if n := v.pinnedVectors(); n == 0 || n != sv.cacheCap {
				return nil, fmt.Errorf("core: table %q: a pin verdict of %d ids for a %d-vector cache", sv.name, n, sv.cacheCap)
			}
		}
		// The v4 rule, kept: a threshold policy only where the counts exist
		// and the policy would decide something.
		if len(counts) > 0 && (sv.prefetch || sv.demandThreshold > 0) {
			sv.counts = counts
		}
		saved = append(saved, sv)
	}
	// The payload hash must match the trailer (read past the hashed
	// stream, straight from the underlying reader).
	sum := br.h.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(raw, crc[:]); err != nil {
		return nil, fmt.Errorf("core: read state checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != sum {
		return nil, fmt.Errorf("core: state checksum mismatch (file corrupt)")
	}
	return saved, nil
}

// readCounts reads a v4 table's per-vector access counts: a length no larger
// than the order's, then that many varints.
func readCounts(br io.ByteReader, name string, orderLen uint64) ([]uint32, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > orderLen {
		return nil, fmt.Errorf("core: table %q: implausible counts length %d", name, n)
	}
	counts := make([]uint32, 0, min(n, 1<<16))
	for j := uint64(0); j < n; j++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		counts = append(counts, uint32(v))
	}
	return counts, nil
}

// readVerdicts reads a table's verdicts for n ids, in id order: the prefetch
// and the probation bitset, and the pinned one of a pin verdict, ⌈n/64⌉
// words each (a shorter stream fails at EOF) with no bit set at or beyond n,
// then a pin verdict's warm order when the file holds one (ordered: each
// pinned id once; without one, id order), and the prefetch position.
func readVerdicts(br *crcByteReader, name string, n uint64, pinned, ordered bool) (*admitBits, error) {
	words := (n + 63) / 64
	v := &admitBits{}
	sets := []*[]uint64{&v.prefetch, &v.probation, &v.pinned}
	if !pinned {
		sets = sets[:2]
	}
	var err error
	for _, set := range sets {
		if *set, err = readWords(br, words); err != nil {
			return nil, err
		}
		if n%64 != 0 && (*set)[words-1]>>(n%64) != 0 {
			return nil, fmt.Errorf("core: table %q: verdict bits set beyond id %d", name, n-1)
		}
	}
	if pinned {
		v.warm = v.pinnedIDs()
	}
	if pinned && ordered {
		left := slices.Clone(v.pinned)
		for i := range v.warm {
			id, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if id >= n || left[id/64]&(1<<(id%64)) == 0 {
				return nil, fmt.Errorf("core: table %q: warm order names id %d, not a pinned id or named before", name, id)
			}
			left[id/64] &^= 1 << (id % 64)
			v.warm[i] = uint32(id)
		}
	}
	bits, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if v.position = math.Float64frombits(bits); math.IsNaN(v.position) || math.IsInf(v.position, 0) || v.position < 0 {
		return nil, fmt.Errorf("core: table %q: implausible prefetch position %v", name, v.position)
	}
	return v, nil
}

// readWords reads n little-endian 64-bit words. Like the order's, the
// up-front allocation is capped so a corrupt length fails at EOF first.
func readWords(r io.Reader, n uint64) ([]uint64, error) {
	words := make([]uint64, 0, min(n, 1<<12))
	var b [8]byte
	for j := uint64(0); j < n; j++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, err
		}
		words = append(words, binary.LittleEndian.Uint64(b[:]))
	}
	return words, nil
}

// applySaved returns the tableState mutation that installs sv's trained
// fields (everything but the layout, which the caller places the blocks
// under) — for LoadState and for a reopen alike. The threshold policy is
// laid out in the order of the layout it is published with: the saved
// verdicts permuted, or a version-4 file's counts compiled.
func (st *storeTable) applySaved(sv savedTable) func(*tableState) {
	return func(ts *tableState) {
		ts.threshold = sv.threshold
		ts.demandThreshold = sv.demandThreshold
		ts.predicted = sv.predicted
		// A saved state with prefetching on but no verdicts would reload as
		// a policy that never admits anything (and a demand gate without
		// verdicts would put every fill on probation), so no verdicts turns
		// both off instead of installing an inert policy.
		has := sv.verdicts != nil || sv.counts != nil
		ts.prefetch = sv.prefetch && has
		if !has {
			ts.demandThreshold = 0
		}
		ts.admit = nil
		if l := ts.layout; ts.prefetch || ts.demandThreshold > 0 {
			if sv.counts != nil {
				// Position 0: version-4 stores entered admitted prefetches
				// at the MRU end, and the file holds no position.
				ts.admit = compileAdmission(cache.ThresholdAdmit{
					Counts: sv.counts, Threshold: sv.threshold, DemandThreshold: sv.demandThreshold,
				}, l)
			} else {
				c := l.Cursor()
				ts.admit = sv.verdicts.permuted(l.NumVectors(), func(p int) int { return int(c.At(p)) })
			}
		}
		// No cache holds more vectors than its table has, and an allocation
		// read from the file must not size the cache's index beyond that.
		if sv.cacheCap > 0 {
			st.freshCache(ts, min(sv.cacheCap, st.numVectors), ts.admit.pinnedSet())
		}
	}
}

// LoadState restores state produced by SaveState into a store opened over
// the same tables (matched by name and size). It installs the saved
// placement (moving the vectors on NVM to it), threshold verdicts, thresholds and
// cache allocations, and enables prefetching where the saved state had it
// enabled. Like Train it computes first — the whole state is decoded and
// checked against the store before anything changes — and then commits each
// table through installLayout, which on a file-backed store also persists
// the restored state and survives a crash at any instant.
func (s *Store) LoadState(r io.Reader) error {
	if err := s.checkWritable(); err != nil {
		return err
	}
	saved, err := decodeSavedStates(r)
	if err != nil {
		return err
	}
	if len(saved) != len(s.tables) {
		return fmt.Errorf("core: state has %d tables, store has %d", len(saved), len(s.tables))
	}
	installs := make([]layoutInstall, len(saved))
	for i, sv := range saved {
		idx, ok := s.byName[sv.name]
		if !ok {
			return fmt.Errorf("core: state references unknown table %q", sv.name)
		}
		st := s.tables[idx]
		if len(sv.order) != st.numVectors {
			return fmt.Errorf("core: table %q: state has %d vectors, table has %d",
				sv.name, len(sv.order), st.numVectors)
		}
		l, err := layout.FromOrder(sv.order, st.blockVectors)
		if err != nil {
			return fmt.Errorf("core: table %q: %w", sv.name, err)
		}
		installs[i] = layoutInstall{st: st, layout: l, mutate: st.applySaved(sv)}
	}
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()
	return s.installLayouts(installs)
}
