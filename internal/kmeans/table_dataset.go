package kmeans

import (
	"bandana/internal/table"
)

// TableDataset adapts an embedding table to the Dataset interface, decoding
// fp16 vectors on demand.
type TableDataset struct {
	Table *table.Table
}

// Len implements Dataset.
func (t TableDataset) Len() int { return t.Table.NumVectors() }

// Dim implements Dataset.
func (t TableDataset) Dim() int { return t.Table.Dim }

// At implements Dataset.
func (t TableDataset) At(i int, dst []float32) {
	// Errors cannot occur for in-range indices; the Dataset contract only
	// passes indices below Len().
	_ = t.Table.VectorInto(dst, uint32(i))
}
