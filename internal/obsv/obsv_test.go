package obsv

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A test counter.", Label{"route", "cache"})
	c.Add(3)
	c.Inc()
	g := r.Gauge("test_inflight", "A test gauge.")
	g.Add(5)
	g.Add(-2)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP test_total A test counter.",
		"# TYPE test_total counter",
		`test_total{route="cache"} 4`,
		"# TYPE test_inflight gauge",
		"test_inflight 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDedupes(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "x", Label{"k", "v"})
	b := r.Counter("dup_total", "x", Label{"k", "v"})
	if a != b {
		t.Fatal("re-registering the same name+labels must return the same counter")
	}
	c := r.Counter("dup_total", "x", Label{"k", "other"})
	if c == a {
		t.Fatal("different labels must yield a distinct counter")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if n := strings.Count(sb.String(), "# TYPE dup_total"); n != 1 {
		t.Errorf("HELP/TYPE must be emitted once per family, got %d", n)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.01, 0.1}, Label{"route", "x"})
	h.ObserveDuration(500 * time.Microsecond) // bucket le=0.001
	h.ObserveDuration(5 * time.Millisecond)   // le=0.01
	h.ObserveDuration(2 * time.Second)        // +Inf

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{route="x",le="0.001"} 1`,
		`lat_seconds_bucket{route="x",le="0.01"} 2`,
		`lat_seconds_bucket{route="x",le="0.1"} 2`,
		`lat_seconds_bucket{route="x",le="+Inf"} 3`,
		`lat_seconds_count{route="x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}

	snap := r.Snapshot()
	if got := snap[`lat_seconds{route="x"}_count`]; got != int64(3) {
		t.Errorf("snapshot count = %v, want 3", got)
	}
	sum, ok := snap[`lat_seconds{route="x"}_sum`].(float64)
	if !ok || sum < 2.005 || sum > 2.006 {
		t.Errorf("snapshot sum = %v, want ~2.0055", snap[`lat_seconds{route="x"}_sum`])
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := int64(42)
	r.GaugeFunc("fn_gauge", "g", func() int64 { return v })
	r.CounterFunc("fn_total", "c", func() int64 { return 7 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, "fn_gauge 42") || !strings.Contains(out, "fn_total 7") {
		t.Errorf("func metrics missing:\n%s", out)
	}
	if got := r.Snapshot()["fn_gauge"]; got != int64(42) {
		t.Errorf("snapshot fn_gauge = %v", got)
	}
}

func TestQueryIDs(t *testing.T) {
	a, b := NewQueryID(), NewQueryID()
	if a == b || a == "" {
		t.Fatalf("ids must be unique and non-empty: %q %q", a, b)
	}
	ctx := context.Background()
	if QueryID(ctx) != "" {
		t.Fatal("empty context must carry no id")
	}
	ctx2, id := EnsureQueryID(ctx)
	if id == "" || QueryID(ctx2) != id {
		t.Fatalf("EnsureQueryID must mint and attach: %q", id)
	}
	ctx3, id3 := EnsureQueryID(ctx2)
	if id3 != id || ctx3 != ctx2 {
		t.Fatal("EnsureQueryID must pass through an existing id unchanged")
	}
}

func TestSlowLogRingBoundsAndOrder(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Record(SlowEntry{QueryID: string(rune('a' + i))})
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring must retain 3 entries, got %d", len(snap))
	}
	// Most recent first: e, d, c (a and b evicted).
	want := []string{"e", "d", "c"}
	for i, e := range snap {
		if e.QueryID != want[i] {
			t.Errorf("snap[%d].QueryID = %q, want %q", i, e.QueryID, want[i])
		}
	}
}

func TestConcurrentUpdatesRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "x")
	h := r.Histogram("race_seconds", "x", nil)
	l := NewSlowLog(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.ObserveDuration(time.Duration(j) * time.Microsecond)
				if j%100 == 0 {
					l.Record(SlowEntry{QueryID: "x"})
				}
			}
		}()
	}
	// Scrape concurrently with updates.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			r.WritePrometheus(&sb)
			r.Snapshot()
			l.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if _, n, _ := h.h.Snapshot(); n != 8000 {
		t.Errorf("histogram count = %d, want 8000", n)
	}
}
