package dataaccess

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/sqlengine"
)

// TestQueryStreamMatchesQuery checks row-for-row equivalence of the
// streaming and materializing paths across the three local routes: RAL
// (simple scan on a POOL vendor), Unity pushdown (ORDER BY scan), and the
// decomposed cross-mart join (streamed from the integrated result).
func TestQueryStreamMatchesQuery(t *testing.T) {
	s := New(Config{Name: "jc-stream-eq"})
	defer s.Close()
	_, mySpec := mkMart(t, "seq_my", sqlengine.DialectMySQL, "events", 10)
	_, msSpec := mkMart(t, "seq_ms", sqlengine.DialectMSSQL, "runsinfo", 6)
	addMart(t, s, "seq_my", mySpec, "gridsql-mysql")
	addMart(t, s, "seq_ms", msSpec, "gridsql-mssql")

	queries := []struct {
		sql   string
		route Route
	}{
		{"SELECT event_id, e_tot FROM events WHERE run = 101", RoutePOOLRAL},
		{"SELECT event_id FROM events ORDER BY event_id", RouteUnity},
		{"SELECT e.event_id, r.e_tot FROM events e JOIN runsinfo r ON e.run = r.run ORDER BY e.event_id", RouteUnity},
	}
	for _, q := range queries {
		qr, err := s.QueryContext(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		sr, err := s.QueryStreamContext(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("%s (stream): %v", q.sql, err)
		}
		if sr.Route != q.route {
			t.Errorf("%s: stream route = %s, want %s", q.sql, sr.Route, q.route)
		}
		var streamed []sqlengine.Row
		if err := sr.ForEach(func(row sqlengine.Row) error {
			streamed = append(streamed, row)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if len(streamed) != len(qr.Rows) {
			t.Fatalf("%s: streamed %d rows, materialized %d", q.sql, len(streamed), len(qr.Rows))
		}
		for i := range streamed {
			if fmt.Sprint(streamed[i]) != fmt.Sprint(qr.Rows[i]) {
				t.Fatalf("%s row %d: stream %v != query %v", q.sql, i, streamed[i], qr.Rows[i])
			}
		}
	}
}

// newByteCachedService builds a service whose cache has a byte budget, so
// streamed results under the admission cap are cached.
func newByteCachedService(t *testing.T, maxBytes int64) *Service {
	t.Helper()
	s := New(Config{Name: "jc-stream-cache", CacheSize: 64, CacheMaxBytes: maxBytes})
	t.Cleanup(func() { s.Close() })
	_, spec := mkMart(t, fmt.Sprintf("scache_%d", maxBytes), sqlengine.DialectMySQL, "events", 12)
	addMart(t, s, fmt.Sprintf("scache_%d", maxBytes), spec, "gridsql-mysql")
	return s
}

// TestStreamFillsCacheUnderLimit: a fully drained streamed query whose
// result fits the admission cap lands in the cache, so the next
// materialized query is a hit with no backend re-execution.
func TestStreamFillsCacheUnderLimit(t *testing.T) {
	s := newByteCachedService(t, 1<<20)
	q := "SELECT event_id FROM events ORDER BY event_id"

	sr, err := s.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sr.ForEach(func(sqlengine.Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("streamed %d rows", n)
	}
	if st := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("entries after drained stream = %d, want 1", st.Entries)
	}

	fedBefore, _, _ := s.Federation().Stats()
	qr, err := s.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 12 {
		t.Fatalf("cached rows = %d", len(qr.Rows))
	}
	if fedAfter, _, _ := s.Federation().Stats(); fedAfter != fedBefore {
		t.Fatal("query re-executed despite the stream-filled cache entry")
	}
	if st := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

// TestStreamBypassesCacheOverLimit: a result set over the admission cap
// streams past the cache — nothing is buffered for it and nothing is
// admitted.
func TestStreamBypassesCacheOverLimit(t *testing.T) {
	// 2 KiB budget, admission cap 2048/8 = 256 bytes: a 12-row result
	// can never be admitted.
	s := newByteCachedService(t, 2048)
	q := "SELECT event_id FROM events ORDER BY event_id"

	sr, err := s.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sr.ForEach(func(sqlengine.Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("streamed %d rows", n)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("oversized streamed result was cached: %+v", st)
	}
	fedBefore, _, _ := s.Federation().Stats()
	if _, err := s.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if fedAfter, _, _ := s.Federation().Stats(); fedAfter == fedBefore {
		t.Fatal("second query should have re-executed (nothing admissible to cache)")
	}
}

// TestStreamServedFromCache: a resident entry (primed by the materialized
// path) serves streams from memory without touching a backend.
func TestStreamServedFromCache(t *testing.T) {
	s := newByteCachedService(t, 1<<20)
	q := "SELECT event_id FROM events ORDER BY event_id"
	if _, err := s.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	fedBefore, _, _ := s.Federation().Stats()
	sr, err := s.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sr.ForEach(func(sqlengine.Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("streamed %d rows from cache", n)
	}
	if fedAfter, _, _ := s.Federation().Stats(); fedAfter != fedBefore {
		t.Fatal("cached stream still hit the backend")
	}
	if st := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

// TestStreamPartialConsumptionNotCached: a stream abandoned mid-scan must
// not insert a truncated result.
func TestStreamPartialConsumptionNotCached(t *testing.T) {
	s := newByteCachedService(t, 1<<20)
	q := "SELECT event_id FROM events ORDER BY event_id"
	sr, err := s.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	sr.Close() // walk away after one row
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("partial stream was cached: %+v", st)
	}
	qr, err := s.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 12 {
		t.Fatalf("full query after partial stream returned %d rows", len(qr.Rows))
	}
}

// TestStreamFillRespectsInvalidation: an invalidation landing while a
// stream is in flight must suppress the stream's cache insert (the rows
// were read from pre-invalidation state).
func TestStreamFillRespectsInvalidation(t *testing.T) {
	s := newByteCachedService(t, 1<<20)
	q := "SELECT event_id FROM events ORDER BY event_id"
	sr, err := s.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	// A schema change arrives mid-stream.
	s.CacheFlush()
	if err := sr.ForEach(func(sqlengine.Row) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("stale stream result was cached past an invalidation: %+v", st)
	}
}

// TestStreamEdgeComposes holds the order of the stream edge's rules where
// they meet on one service — a byte-bounded cache, a one-slot gate with no
// queue, a session byte quota and a slow threshold: (i) a stream cut by
// the quota leaves no cache entry and holds its slot until Close, after
// which the next query is admitted immediately; (ii) a cache-hit stream
// is charged to the quota and trips it; (iii) each trip counts once as a
// failed query and never as a completed one; (iv) a drained stream adds
// its rows and their summed RowBytes to the delivery counters.
func TestStreamEdgeComposes(t *testing.T) {
	s := New(Config{
		Name:               "jc-stream-edge",
		CacheSize:          64,
		CacheMaxBytes:      1 << 22,
		MaxInFlight:        1,
		AdmissionQueue:     -1,
		SessionMaxBytes:    4096,
		SlowQueryThreshold: time.Nanosecond,
	})
	t.Cleanup(func() { s.Close() })
	_, spec := mkMart(t, "sedge", sqlengine.DialectMySQL, "edge_ev", 200)
	addMart(t, s, "sedge", spec, "gridsql-mysql")
	metric := func(name string) int64 {
		var n int64
		for k, v := range s.Metrics().Snapshot() {
			if k == name || strings.HasPrefix(k, name+"{") {
				n += v.(int64)
			}
		}
		return n
	}
	completed, failed := metric("gridrdb_queries_total"), metric("gridrdb_query_errors_total")
	checkTrip := func(label string, err error) {
		t.Helper()
		if !isOverloaded(err) {
			t.Fatalf("%s: stream ended with %v, want the byte-quota fault", label, err)
		}
		if got := metric("gridrdb_query_errors_total"); got != failed+1 {
			t.Fatalf("%s: query errors %d, want %d", label, got, failed+1)
		}
		if got := metric("gridrdb_queries_total"); got != completed {
			t.Fatalf("%s: completed queries %d, want %d", label, got, completed)
		}
		failed++
	}

	// (i) and (iii): a miss cut by the quota.
	cut, err := s.QueryStreamContext(WithCaller(context.Background(), "ann", "sess-cut"),
		"SELECT event_id, run, e_tot FROM edge_ev WHERE event_id >= 0")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for ; err == nil; rows++ {
		_, err = cut.Next()
	}
	if rows < 2 || rows > 200 {
		t.Fatalf("quota tripped after %d rows", rows-1)
	}
	checkTrip("cut miss", err)
	if ls := s.LoadStats(); ls.InFlight != 1 {
		t.Fatalf("in flight after the trip = %d, want 1 (held until Close)", ls.InFlight)
	}
	cut.Close()
	if got := metric("gridrdb_query_errors_total") + metric("gridrdb_queries_total"); got != failed+completed {
		t.Fatal("Close after a trip counted the query again")
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("a stream cut by the quota was cached: %+v", st)
	}

	// (iv): an anonymous miss, admitted straight away, drained and cached.
	q := "SELECT event_id, run, e_tot FROM edge_ev"
	admitted := s.LoadStats().AdmittedImmediate
	rowsOut, bytesOut := metric("gridrdb_rows_streamed_total"), metric("gridrdb_bytes_streamed_total")
	sr, err := s.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatalf("query after the cut stream closed: %v", err)
	}
	if got := s.LoadStats().AdmittedImmediate; got != admitted+1 {
		t.Fatalf("immediate admissions %d, want %d", got, admitted+1)
	}
	var n, sum int64
	if err := sr.ForEach(func(row sqlengine.Row) error {
		n++
		sum += sqlengine.RowBytes(row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("drained %d rows", n)
	}
	if got := metric("gridrdb_rows_streamed_total") - rowsOut; got != n {
		t.Errorf("rows streamed += %d, want %d", got, n)
	}
	if got := metric("gridrdb_bytes_streamed_total") - bytesOut; got != sum {
		t.Errorf("bytes streamed += %d, want %d", got, sum)
	}
	if e := s.SlowQueries()[0]; e.Rows != n || e.Bytes != sum {
		t.Errorf("slow entry rows %d bytes %d, want %d and %d", e.Rows, e.Bytes, n, sum)
	}
	completed++
	if st := s.CacheStats(); st.Entries != 1 {
		t.Fatalf("cache entries after the drained stream = %d, want 1", st.Entries)
	}

	// (ii) and (iii): the hit is charged to another session's quota.
	hits := s.CacheStats().Hits
	hit, err := s.QueryStreamContext(WithCaller(context.Background(), "ann", "sess-hit"), q)
	if err != nil {
		t.Fatal(err)
	}
	checkTrip("cache hit", hit.ForEach(func(sqlengine.Row) error { return nil }))
	if st := s.CacheStats(); st.Hits != hits+1 {
		t.Fatalf("cache hits %d, want %d", st.Hits, hits+1)
	}
	if ls := s.LoadStats(); ls.InFlight != 0 || ls.AdmittedImmediate != admitted+1 {
		t.Fatalf("a cache hit took a slot: %+v", ls)
	}
}

// BenchmarkStreamEdge streams a 2 000-row cache miss in process, with no
// HTTP: the rows cross the cache fill (admitted at EOF, then flushed for
// the next iteration), the admission ticket and the query track.
//
//	go test ./internal/dataaccess -run '^$' -bench '^BenchmarkStreamEdge$' -benchmem
func BenchmarkStreamEdge(b *testing.B) {
	s := New(Config{Name: "jc-bench-edge", CacheSize: 64, CacheMaxBytes: 64 << 20, MaxInFlight: 4})
	b.Cleanup(func() { s.Close() })
	_, spec := mkMart(b, "bedge", sqlengine.DialectMySQL, "edge_scan", 2000)
	addMart(b, s, "bedge", spec, "gridsql-mysql")
	q := "SELECT event_id, run, e_tot FROM edge_scan"
	b.ReportAllocs()
	for b.Loop() {
		s.CacheFlush()
		sr, err := s.QueryStreamContext(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := sr.ForEach(func(sqlengine.Row) error { n++; return nil }); err != nil || n != 2000 {
			b.Fatalf("streamed %d rows: %v", n, err)
		}
	}
	if st := s.CacheStats(); st.Rejected != 0 {
		b.Fatalf("the fill was refused: %+v", st)
	}
}

// TestResultSetBytes sanity-checks the size estimator the byte-bounded
// cache runs on: monotone in rows and accounting for string payloads.
func TestResultSetBytes(t *testing.T) {
	small := &sqlengine.ResultSet{
		Columns: []string{"a"},
		Rows:    []sqlengine.Row{{sqlengine.NewInt(1)}},
	}
	big := &sqlengine.ResultSet{
		Columns: []string{"a"},
		Rows: []sqlengine.Row{
			{sqlengine.NewInt(1)},
			{sqlengine.NewString("some rather long payload string")},
		},
	}
	if ResultSetBytes(nil) != 0 {
		t.Fatal("nil result set should be 0 bytes")
	}
	sb, bb := ResultSetBytes(small), ResultSetBytes(big)
	if sb <= 0 || bb <= sb {
		t.Fatalf("sizes: small=%d big=%d", sb, bb)
	}
	if bb-sb < int64(len("some rather long payload string")) {
		t.Fatalf("string payload not accounted: small=%d big=%d", sb, bb)
	}
}

// TestServiceCursorTTLConfig: a negative CursorTTL disables reaping.
func TestServiceCursorTTLConfig(t *testing.T) {
	s := New(Config{Name: "jc-noreap", CursorTTL: -1})
	defer s.Close()
	_, spec := mkMart(t, "noreap_mart", sqlengine.DialectMySQL, "events", 4)
	addMart(t, s, "noreap_mart", spec, "gridsql-mysql")
	info, err := s.OpenCursor(t.Context(), "SELECT event_id FROM events ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	if info.TTL != 0 {
		t.Fatalf("TTL = %v, want 0 (disabled)", info.TTL)
	}
	time.Sleep(30 * time.Millisecond)
	if n := s.cursors.reap(time.Now()); n != 0 {
		t.Fatalf("reaped %d cursors with reaping disabled", n)
	}
	if s.CursorCount() != 1 {
		t.Fatalf("cursor count = %d", s.CursorCount())
	}
}
