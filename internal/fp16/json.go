package fp16

import (
	"encoding/binary"
	"strconv"
	"sync"
)

const (
	// finiteMagnitudes is the number of finite non-negative binary16
	// values: every bit pattern below +Inf (0x7C00).
	finiteMagnitudes = int(PositiveInfinity)
	// jsonTextLen is the total length of their JSON texts, so the blob is
	// allocated once and exactly (the test pins it).
	jsonTextLen = 275979
)

// jsonTable holds the JSON number of every finite non-negative binary16
// value, back to back in one blob: magnitude m's text is
// text[off[m]:off[m+1]]. The sign is a '-' prefix, so negative values share
// the entries and the table is half the size it would be over all 65,536
// patterns (276 KB of text + 127 KB of offsets).
var jsonTable struct {
	once sync.Once
	text []byte
	off  []uint32
}

// buildJSONTable renders each magnitude exactly as encoding/json renders the
// decoded float32: shortest round-trip digits, 'f' notation, or 'e' below
// 1e-6 with the two-digit exponent trimmed ("e-08" -> "e-8"). Nothing in
// binary16's range reaches the 1e21 cutoff on the other side.
func buildJSONTable() {
	text := make([]byte, 0, jsonTextLen)
	off := make([]uint32, finiteMagnitudes+1)
	for m := 0; m < finiteMagnitudes; m++ {
		off[m] = uint32(len(text))
		f := Float16(m).ToFloat32()
		if f != 0 && f < 1e-6 {
			text = strconv.AppendFloat(text, float64(f), 'e', -1, 32)
			if n := len(text); text[n-4] == 'e' && text[n-2] == '0' {
				text[n-2] = text[n-1]
				text = text[:n-1]
			}
		} else {
			text = strconv.AppendFloat(text, float64(f), 'f', -1, 32)
		}
	}
	off[finiteMagnitudes] = uint32(len(text))
	jsonTable.text, jsonTable.off = text, off
}

// AppendJSON appends the JSON array of the vector whose packed little-endian
// binary16 elements are raw — byte for byte what encoding/json writes for
// the decoded []float32 — and returns the extended slice. JSON has no
// spelling for NaN or an infinity: if raw holds one, AppendJSON returns dst
// unextended and false.
func AppendJSON(dst, raw []byte) ([]byte, bool) {
	jsonTable.once.Do(buildJSONTable)
	text, off := jsonTable.text, jsonTable.off
	n := len(raw) / 2
	start := len(dst)
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		h := binary.LittleEndian.Uint16(raw[2*i:])
		m := int(h &^ signMask16)
		if m >= finiteMagnitudes {
			return dst[:start], false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		if h&signMask16 != 0 {
			dst = append(dst, '-')
		}
		dst = append(dst, text[off[m]:off[m+1]]...)
	}
	return append(dst, ']'), true
}
