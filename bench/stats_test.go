package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := beyond(10, 0.9); got != 1 {
		t.Errorf("beyond(10, 0.9) = %d, want 1", got)
	}
	if got := beyond(1000, 0.9); got != 100 {
		t.Errorf("beyond(1000, 0.9) = %d, want 100", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.2, 9.5, 4.4, 7.0}, [3]float64{2.65, 4.4, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: the union is 50, not 60
		{ID: 4, Parent: 2, Name: "a.inner", Start: 15, End: 20},
		{ID: 5, Parent: 0, Name: "root2", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "replayed", Start: 400, End: 430}, // after its parent, as replays are
		{ID: 7, Parent: probeSpan, Name: "probe", Start: 500, End: 510},
		{ID: 8, Parent: 7, Name: "too long", Start: 0, End: 50}, // a child longer than its parent
	}
	want := map[int]time.Duration{1: 50, 2: 25, 3: 30, 4: 5, 5: 70, 6: 30, 7: 0, 8: 50}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestSummarizeKeepsCleanSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	slices := []slice{
		{from: at(0), to: at(1000), busy: 200},
		{from: at(1000), to: at(2000), busy: 120, steal: 80}, // the host took 40%
		{from: at(2000), to: at(3000), busy: 199, steal: 1},
		{from: at(3000), to: at(4000), busy: 200},
	}
	samples := []sample{
		{start: at(100), end: at(200), rows: 1},   // clean
		{start: at(900), end: at(1100), rows: 1},  // ends in the stolen slice
		{start: at(1900), end: at(2100), rows: 1}, // completes clean, but started stolen
		{start: at(2500), end: at(3500), rows: 1, refresh: true},
		{start: at(3600), end: at(3700), first: 50 * time.Millisecond, rows: 1},
	}
	ws := summarize(samples, slices)
	if ws.keptSlices != 3 || ws.kept != 3*time.Second || ws.disturbed {
		t.Fatalf("kept %d slices (%v), disturbed=%v; want 3 (3s), false", ws.keptSlices, ws.kept, ws.disturbed)
	}
	if ws.ops != 4 || ws.rows != 4 {
		t.Errorf("ops %d rows %d, want 4 and 4 (every op but the one ending in the stolen slice)", ws.ops, ws.rows)
	}
	if len(ws.latMs) != 2 || ws.latMs[0] != 100 || ws.latMs[1] != 100 {
		t.Errorf("read latencies %v, want the two reads that ran wholly in kept slices", ws.latMs)
	}
	if len(ws.refreshMs) != 1 || ws.refreshMs[0] != 1000 {
		t.Errorf("refresh latencies %v, want [1000]", ws.refreshMs)
	}
	if len(ws.firstMs) != 2 || ws.firstMs[1] != 50 {
		t.Errorf("first-row times %v, want [0 50]", ws.firstMs)
	}

	// Nothing clean: the least-stolen quarter is measured, and the run says so.
	for i := range slices {
		slices[i].busy, slices[i].steal = 150, int64(10*(i+1))
	}
	keep, disturbed := keepSlices(slices)
	if !disturbed || !keep[0] || keep[1] || keep[2] || keep[3] {
		t.Errorf("keep = %v disturbed = %v, want only the least-stolen slice kept and the run flagged", keep, disturbed)
	}
	if got := unstolen(slices[:1]); got != 937500*time.Microsecond {
		t.Errorf("unstolen = %v, want 937.5ms (1s less the 10/160 stolen)", got)
	}
}
