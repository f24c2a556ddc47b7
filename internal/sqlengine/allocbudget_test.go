package sqlengine

import (
	"testing"

	"gridrdb/internal/budgettest"
)

// TestAllocBudgets holds this package's benchmarks to their rows of
// budgettest's allocs.json.
func TestAllocBudgets(t *testing.T) {
	budgettest.Check(t, "gridrdb/internal/sqlengine", map[string]func(*testing.B){
		"BenchmarkEngineAggregate":     BenchmarkEngineAggregate,
		"BenchmarkEngineSeek/serial":   func(b *testing.B) { seekSerial(b, seekBench(b)) },
		"BenchmarkEngineSeek/parallel": func(b *testing.B) { seekParallel(b, seekBench(b)) },
	})
}
