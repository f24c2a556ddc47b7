package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"gridrdb/internal/sqlengine"
)

// smokeEvents is the data size of the in-test deployments: ~500 rows per
// run table, set up in a fraction of a second.
const smokeEvents = 2000

func TestChecksumIsOrderIndependent(t *testing.T) {
	rows := []sqlengine.Row{
		{sqlengine.NewInt(1), sqlengine.NewFloat(1.5), sqlengine.NewString("a")},
		{sqlengine.NewInt(2), sqlengine.NewFloat(-0.25), sqlengine.Null()},
		{sqlengine.NewInt(3), sqlengine.NewFloat(1e300), sqlengine.NewBool(true)},
	}
	var fwd, rev, changed answer
	fwd.add(rows, true)
	rev.add([]sqlengine.Row{rows[2], rows[0], rows[1]}, true)
	if fwd != rev {
		t.Errorf("checksum depends on row order: %+v vs %+v", fwd, rev)
	}
	rows[1][1] = sqlengine.NewFloat(-0.2500000001)
	changed.add(rows, true)
	if changed.sum == fwd.sum {
		t.Error("checksum did not notice a changed cell")
	}
	// A value moved between cells or kinds must not hash alike.
	if rowHash(sqlengine.Row{sqlengine.NewInt(1), sqlengine.NewInt(2)}) == rowHash(sqlengine.Row{sqlengine.NewInt(2), sqlengine.NewInt(1)}) {
		t.Error("row hash ignores cell position")
	}
	if rowHash(sqlengine.Row{sqlengine.NewInt(1)}) == rowHash(sqlengine.Row{sqlengine.NewFloat(math.Float64frombits(1))}) {
		t.Error("row hash ignores cell kind")
	}
}

func TestSeedDeterminesOpSequence(t *testing.T) {
	d, err := buildDeployment(3, smokeEvents)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ref, err := newReference(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		gen := func(seed int64) *plan {
			p, err := w.gen(rand.New(rand.NewSource(seed)), ref)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return p
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different plans", w.name)
		}
		if reflect.DeepEqual(a.queries, c.queries) && reflect.DeepEqual(a.seq, c.seq) {
			t.Errorf("%s: seeds 7 and 8 gave the same queries in the same order", w.name)
		}
		if len(a.answers) != len(a.queries) {
			t.Errorf("%s: %d answers for %d queries", w.name, len(a.answers), len(a.queries))
		}
	}
}

// benchmarkJSON is ../BENCHMARK.json, which names what this package
// prints.
func benchmarkJSON(t *testing.T) (bf struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameMetrics checks that a run reported exactly the declared metrics,
// each in its declared unit.
func sameMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s: reported %+v (present: %v), BENCHMARK.json says unit %q", m.Name, g, ok, m.Unit)
		}
	}
}

// TestWorkloadSmoke sets each workload up at a small data size — warm-up
// with every answer checked, path guard — runs a one-second window, and
// holds what it reports against BENCHMARK.json.
func TestWorkloadSmoke(t *testing.T) {
	ctx := context.Background()
	bf := benchmarkJSON(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	host := startHostClock(readHost())
	defer host.stop()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
				t.Errorf("BENCHMARK.json workload %d is %+v, want %s with the same why", i, bf.Workloads[i], w.name)
			}
			b, err := prepare(ctx, w, 11, smokeEvents)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			res, _ := runMeasured(ctx, b, host, time.Second)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d ops attempted, %d failed", res.Attempted, res.Failed)
			}
			sameMetrics(t, res.Metrics, bf.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun exercises the replay pass on the workload with the most
// layers under it.
func TestTracedRun(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"relay_scan", "cached_refresh"} {
		b, err := prepare(ctx, workloadByName(name), 5, smokeEvents)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := runTraced(ctx, b, 2*time.Second, "")
		b.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || len(res.Metrics) == 0 {
			t.Fatalf("%s: traced run incorrect or without metrics: %+v", name, res)
		}
		sameMetrics(t, res.Metrics, benchmarkJSON(t).PerLayer)
	}
}
