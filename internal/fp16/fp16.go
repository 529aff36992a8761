// Package fp16 implements IEEE-754 binary16 (half precision) conversion.
//
// Bandana stores embedding vectors as fp16 elements (the production model in
// the paper uses 64 elements of type fp16 per vector, i.e. 128 bytes). This
// package provides scalar and bulk conversions between float32 and the
// 16-bit encoding, with round-to-nearest-even semantics, plus helpers to
// encode vectors into byte slices for block storage.
//
// AppendJSON (json.go) is the other way out of fp16: the JSON text of a
// stored vector without the float32 in between. A half has 65,536 values, so
// the text encoding/json would produce for each is a table lookup instead of
// a shortest-round-trip digit search per element. That table is built on the
// first call, not at init like the decode table: only a process that renders
// JSON vectors (the router's HTTP edge) pays its 0.4 MB and ≈ 2 ms, a
// bwp-only one never does.
package fp16

import (
	"encoding/binary"
	"math"
)

// Float16 is the 16-bit IEEE-754 binary16 representation of a floating point
// number: 1 sign bit, 5 exponent bits, 10 mantissa bits.
type Float16 uint16

const (
	// ByteSize is the size of one encoded element in bytes.
	ByteSize = 2

	signMask16     = 0x8000
	exponentMask16 = 0x7C00
	mantissaMask16 = 0x03FF
)

// PositiveInfinity is the Float16 encoding of +Inf.
const PositiveInfinity Float16 = 0x7C00

// FromFloat32 converts a float32 to Float16 using round-to-nearest-even.
// Values whose magnitude exceeds the binary16 range become infinities;
// subnormal results are rounded to the nearest representable subnormal.
func FromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16((b >> 16) & signMask16)
	exp := int32((b>>23)&0xFF) - 127
	mant := b & 0x7FFFFF

	switch {
	case exp == 128: // NaN or Inf
		if mant != 0 {
			// NaN: preserve a quiet NaN with some payload.
			return Float16(sign | exponentMask16 | 0x0200 | uint16(mant>>13))
		}
		return Float16(sign | exponentMask16)
	case exp > 15: // overflow -> infinity
		return Float16(sign | exponentMask16)
	case exp >= -14: // normalized range
		// 13 mantissa bits are dropped; round to nearest even.
		e := uint16(exp+15) << 10
		m := mant >> 13
		rem := mant & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
			m++
		}
		// Mantissa overflow propagates into the exponent, which is exactly
		// the desired rounding behaviour (and saturates to Inf correctly).
		return Float16(uint32(sign) + uint32(e) + m)
	case exp >= -25: // subnormal range (including values that round up to the
		// smallest subnormal)
		shift := uint32(-exp - 1) // between 14 and 24
		full := mant | 0x800000
		m := full >> shift
		rem := full & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		return Float16(uint32(sign) + m)
	default: // underflow to signed zero
		return Float16(sign)
	}
}

// ToFloat32 converts a Float16 back to float32. The conversion is exact:
// every binary16 value is representable in binary32.
func (h Float16) ToFloat32() float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&exponentMask16) >> 10
	mant := uint32(h & mantissaMask16)

	switch {
	case exp == 0x1F: // Inf / NaN
		if mant != 0 {
			return math.Float32frombits(sign | 0x7F800000 | (mant << 13) | 0x400000)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalise.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= mantissaMask16
		return math.Float32frombits(sign | (e << 23) | (mant << 13))
	default:
		return math.Float32frombits(sign | ((exp + 127 - 15) << 23) | (mant << 13))
	}
}

// IsNaN reports whether h encodes a NaN.
func (h Float16) IsNaN() bool {
	return h&exponentMask16 == exponentMask16 && h&mantissaMask16 != 0
}

// IsInf reports whether h encodes an infinity. sign > 0 tests +Inf, sign < 0
// tests -Inf and sign == 0 tests either.
func (h Float16) IsInf(sign int) bool {
	if h&exponentMask16 != exponentMask16 || h&mantissaMask16 != 0 {
		return false
	}
	neg := h&signMask16 != 0
	return sign == 0 || (sign > 0 && !neg) || (sign < 0 && neg)
}

// Bits returns the raw 16-bit encoding.
func (h Float16) Bits() uint16 { return uint16(h) }

// FromBits builds a Float16 from its raw encoding.
func FromBits(b uint16) Float16 { return Float16(b) }

// EncodeSlice converts src (float32) into its packed little-endian binary16
// representation appended to dst, returning the extended slice. The encoded
// length is 2*len(src) bytes.
func EncodeSlice(dst []byte, src []float32) []byte {
	for _, f := range src {
		var buf [2]byte
		binary.LittleEndian.PutUint16(buf[:], uint16(FromFloat32(f)))
		dst = append(dst, buf[0], buf[1])
	}
	return dst
}

// decodeTable maps every binary16 bit pattern to the bits of its binary32
// value. 256 KiB buys a branchless one-load-per-element bulk decode that is
// bit-identical to ToFloat32 by construction (including signed zeros,
// subnormals, infinities and NaN payload quieting). Embedding payloads
// cluster on a few exponents, so the hot entries stay cache-resident.
var decodeTable = func() *[1 << 16]uint32 {
	var t [1 << 16]uint32
	for i := range t {
		t[i] = math.Float32bits(Float16(i).ToFloat32())
	}
	return &t
}()

// DecodeSlice decodes a packed little-endian binary16 buffer into dst
// (float32). It decodes min(len(dst), len(src)/2) elements and returns the
// number decoded.
//
// This is the serving path's bulk decode (one call per vector on every
// cache fill, and the client-side decode of the binary wire protocol), so
// it is unrolled 8 wide over 64-bit loads with table-driven lane
// conversion instead of converting element-at-a-time through ToFloat32.
func DecodeSlice(dst []float32, src []byte) int {
	n := len(src) / 2
	if n > len(dst) {
		n = len(dst)
	}
	t := decodeTable
	i := 0
	for ; i+8 <= n; i += 8 {
		s := src[2*i : 2*i+16 : 2*i+16]
		lo := binary.LittleEndian.Uint64(s)
		hi := binary.LittleEndian.Uint64(s[8:])
		d := dst[i : i+8 : i+8]
		d[0] = math.Float32frombits(t[uint16(lo)])
		d[1] = math.Float32frombits(t[uint16(lo>>16)])
		d[2] = math.Float32frombits(t[uint16(lo>>32)])
		d[3] = math.Float32frombits(t[lo>>48])
		d[4] = math.Float32frombits(t[uint16(hi)])
		d[5] = math.Float32frombits(t[uint16(hi>>16)])
		d[6] = math.Float32frombits(t[uint16(hi>>32)])
		d[7] = math.Float32frombits(t[hi>>48])
	}
	for ; i < n; i++ {
		dst[i] = math.Float32frombits(t[binary.LittleEndian.Uint16(src[2*i:])])
	}
	return n
}

// DecodeAppend decodes every element of src and appends them to dst.
func DecodeAppend(dst []float32, src []byte) []float32 {
	n := len(src) / 2
	if free := cap(dst) - len(dst); free < n {
		grown := make([]float32, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	out := dst[:len(dst)+n]
	DecodeSlice(out[len(dst):], src)
	return out
}

// Quantize rounds every element of v through binary16 and back, in place,
// and returns v: the values a table stores once v is encoded.
func Quantize(v []float32) []float32 {
	for i, f := range v {
		v[i] = FromFloat32(f).ToFloat32()
	}
	return v
}
