// Package budgettest holds the allocation budgets of gridrdb's in-process
// benchmarks, one committed table (allocs.json), and Check, the one test
// every package with a budgeted benchmark runs them through.
//
// A row is one benchmark: its allocs/op and B/op at a fixed iteration
// count, under the GOMAXPROCS the table records. Allocation counts are
// deterministic where timings are not, so Check gates them in tier-1 and
// leaves ns/op ungated. A change that lowers a number updates its row in
// the same diff, so the file's history is the trajectory; a change that
// raises one says why. To print a package's rows as measured:
//
//	go test -run TestAllocBudgets -v ./internal/sqlengine
package budgettest

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"gridrdb/internal/leaktest"
)

// Tolerances: a row fails when a measurement exceeds its budget by more
// than this share.
const (
	allocsSlack = 0.01
	bytesSlack  = 0.03
)

//go:embed allocs.json
var tableJSON []byte

// Table is allocs.json: where its numbers were measured, and one Row per
// benchmark.
type Table struct {
	// Commit is the parent of the change that last set the numbers: that
	// change is the file's latest commit.
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Rows       []Row  `json:"benchmarks"`
}

// Row is one benchmark's budget. Name is the benchmark as go test -bench
// prints it, sub-benchmark included; N the iteration count it runs for.
type Row struct {
	Name        string `json:"name"`
	Package     string `json:"package"`
	N           int    `json:"n"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// Check runs each benchmark of benches, keyed by its row's name, through
// testing.Benchmark at the row's iteration count and the table's
// GOMAXPROCS, and fails t for a row over its budget. benches must cover
// exactly the rows of pkg. It skips under -race, where allocation counts
// do not hold.
func Check(t *testing.T, pkg string, benches map[string]func(*testing.B)) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	var tab Table
	if err := json.Unmarshal(tableJSON, &tab); err != nil {
		t.Fatalf("allocs.json: %v", err)
	}
	var rows []Row
	for _, r := range tab.Rows {
		if r.Package == pkg {
			rows = append(rows, r)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(benches)) {
		if !slices.ContainsFunc(rows, func(r Row) bool { return r.Name == name }) {
			t.Errorf("%s: no row in allocs.json for package %s", name, pkg)
		}
	}
	bt := flag.Lookup("test.benchtime")
	if bt == nil {
		t.Fatal("no -test.benchtime flag: Check runs inside go test only")
	}
	defer bt.Value.Set(bt.Value.String())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tab.GOMAXPROCS))
	if runtime.Version() != tab.Go {
		t.Logf("allocs.json was measured with %s, this is %s", tab.Go, runtime.Version())
	}
	for _, r := range rows {
		bench, ok := benches[r.Name]
		if !ok {
			t.Errorf("%s: allocs.json has a row the package does not run", r.Name)
			continue
		}
		if err := bt.Value.Set(fmt.Sprintf("%dx", r.N)); err != nil {
			t.Fatal(err)
		}
		res := testing.Benchmark(bench)
		if res.N != r.N {
			t.Errorf("%s: ran %d iterations, want %d (did it fail?)", r.Name, res.N, r.N)
			continue
		}
		allocs, bytes := res.AllocsPerOp(), res.AllocedBytesPerOp()
		t.Logf(`{"name": %q, "package": %q, "n": %d, "allocs_per_op": %d, "bytes_per_op": %d}`, r.Name, pkg, r.N, allocs, bytes)
		if over(allocs, r.AllocsPerOp, allocsSlack) {
			t.Errorf("%s: %d allocs/op, budget %d (+%.0f%%)", r.Name, allocs, r.AllocsPerOp, allocsSlack*100)
		}
		if over(bytes, r.BytesPerOp, bytesSlack) {
			t.Errorf("%s: %d B/op, budget %d (+%.0f%%)", r.Name, bytes, r.BytesPerOp, bytesSlack*100)
		}
	}
}

// over reports whether got exceeds budget by more than slack.
func over(got, budget int64, slack float64) bool {
	return float64(got) > float64(budget)*(1+slack)
}
