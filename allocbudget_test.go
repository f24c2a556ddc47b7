package gridrdb

import (
	"testing"

	"gridrdb/internal/budgettest"
)

// TestAllocBudgets holds this package's benchmarks to their rows of
// budgettest's allocs.json.
func TestAllocBudgets(t *testing.T) {
	budgettest.Check(t, "gridrdb", map[string]func(*testing.B){
		"BenchmarkDecomposedJoin": BenchmarkDecomposedJoin,
		"BenchmarkDecodeChunk":    BenchmarkDecodeChunk,
	})
}
