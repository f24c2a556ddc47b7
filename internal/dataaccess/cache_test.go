package dataaccess

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gridrdb/internal/qcache"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// newCachedService builds a cache-enabled service over two marts on
// different vendors (so cross-mart joins take the decomposed Unity path).
func newCachedService(t *testing.T) (*Service, *sqlengine.Engine, *sqlengine.Engine) {
	t.Helper()
	s := New(Config{Name: "jc-cache", CacheSize: 64})
	t.Cleanup(func() { s.Close() })
	my, mySpec := mkMart(t, "cmart_my", sqlengine.DialectMySQL, "events", 12)
	ms, msSpec := mkMart(t, "cmart_ms", sqlengine.DialectMSSQL, "runsinfo", 6)
	addMart(t, s, "cmart_my", mySpec, "gridsql-mysql")
	addMart(t, s, "cmart_ms", msSpec, "gridsql-mssql")
	return s, my, ms
}

// TestCacheRepeatedFederatedQuery proves the headline behaviour: a
// repeated federated SELECT is served from qcache — the hit counter
// increments and no sub-queries are re-executed.
func TestCacheRepeatedFederatedQuery(t *testing.T) {
	s, _, _ := newCachedService(t)
	q := "SELECT e.event_id, r.e_tot FROM events e JOIN runsinfo r ON e.run = r.run"

	first, err := s.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Route != RouteUnity {
		t.Fatalf("route = %s, want unity", first.Route)
	}
	_, subsAfterFirst, _ := s.Federation().Stats()
	if subsAfterFirst < 2 {
		t.Fatalf("expected a decomposed scatter-gather, got %d sub-queries", subsAfterFirst)
	}

	for i := 0; i < 3; i++ {
		again, err := s.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Rows) != len(first.Rows) {
			t.Fatalf("cached result has %d rows, want %d", len(again.Rows), len(first.Rows))
		}
	}
	_, subsAfterRepeat, _ := s.Federation().Stats()
	if subsAfterRepeat != subsAfterFirst {
		t.Fatalf("sub-queries re-executed on cached query: %d -> %d", subsAfterFirst, subsAfterRepeat)
	}
	st := s.CacheStats()
	if st.Hits != 3 {
		t.Fatalf("cache hits = %d, want 3", st.Hits)
	}
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", st.Misses)
	}
}

// TestCacheParamsDistinguishEntries checks that the same SQL with
// different parameters occupies distinct entries.
func TestCacheParamsDistinguishEntries(t *testing.T) {
	s, _, _ := newCachedService(t)
	q := "SELECT event_id FROM events WHERE run = ?"
	a, err := s.QueryContext(context.Background(), q, sqlengine.NewInt(100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.QueryContext(context.Background(), q, sqlengine.NewInt(999)) // no such run
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == len(b.Rows) {
		t.Fatalf("test setup: want different row counts, got %d and %d", len(a.Rows), len(b.Rows))
	}
	if st := s.CacheStats(); st.Entries != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 distinct entries and no hits", st)
	}
	// And an int param is not confused with its string rendering.
	if _, err := s.QueryContext(context.Background(), q, sqlengine.NewString("100")); err == nil {
		if st := s.CacheStats(); st.Hits != 0 {
			t.Fatalf("string param hit the int param's entry")
		}
	}
}

// TestTrackerInvalidatesDependents is the end-to-end invalidation proof:
// a change detected by the tracker evicts exactly the cached entries that
// read the changed *tables* — entries on the source's other tables, and
// on other sources, survive.
func TestTrackerInvalidatesDependents(t *testing.T) {
	s, my, _ := newCachedService(t)
	tr := NewTracker(s, 0)
	if _, err := tr.CheckNow(); err != nil { // baseline fingerprints
		t.Fatal(err)
	}

	qMy := "SELECT event_id, e_tot FROM events ORDER BY event_id"
	qMs := "SELECT event_id FROM runsinfo ORDER BY event_id"
	if _, err := s.QueryContext(context.Background(), qMy); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryContext(context.Background(), qMs); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}

	// Write to the events table and let the tracker notice: its row count
	// is part of the regenerated spec, so the diff flags exactly "events".
	if _, err := my.Exec("INSERT INTO `events` VALUES (9001, 100, 1.5)"); err != nil {
		t.Fatal(err)
	}
	updated, err := tr.CheckNow()
	if err != nil {
		t.Fatal(err)
	}
	if len(updated) != 1 || updated[0] != "cmart_my" {
		t.Fatalf("updated = %v, want [cmart_my]", updated)
	}

	st := s.CacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (only the events entry)", st.Invalidations)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (runsinfo entry survives)", st.Entries)
	}

	// The surviving entry still hits; the evicted one recomputes.
	hitsBefore := st.Hits
	if _, err := s.QueryContext(context.Background(), qMs); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Hits; got != hitsBefore+1 {
		t.Fatalf("unrelated entry did not survive: hits %d -> %d", hitsBefore, got)
	}
	_, subsBefore, _ := s.Federation().Stats()
	if _, err := s.QueryContext(context.Background(), qMy); err != nil {
		t.Fatal(err)
	}
	if _, subsAfter, _ := s.Federation().Stats(); subsAfter == subsBefore {
		t.Fatal("evicted entry was served without re-executing")
	}
}

// TestTrackerPerTableEviction pins the satellite bugfix: a schema change
// confined to one table of a source no longer cold-starts the source's
// other tables' entries (the old behaviour evicted per source), and a
// change to an *unrelated new* table evicts nothing at all.
func TestTrackerPerTableEviction(t *testing.T) {
	s := New(Config{Name: "jc-pertable", CacheSize: 64})
	t.Cleanup(func() { s.Close() })
	// One mart hosting two tables, so both cached entries share a source.
	my, spec := mkMart(t, "pt_mart", sqlengine.DialectMySQL, "events", 8)
	if _, err := my.Exec("CREATE TABLE `extra` (`k` BIGINT PRIMARY KEY, `v` DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := my.Exec("INSERT INTO `extra` VALUES (1, 2.5)"); err != nil {
		t.Fatal(err)
	}
	var err error
	spec, err = xspec.Generate("pt_mart", sqlengine.DialectMySQL.Name, my)
	if err != nil {
		t.Fatal(err)
	}
	addMart(t, s, "pt_mart", spec, "gridsql-mysql")

	tr := NewTracker(s, 0)
	if _, err := tr.CheckNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryContext(context.Background(), "SELECT event_id FROM events ORDER BY event_id"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryContext(context.Background(), "SELECT k FROM extra ORDER BY k"); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}

	// A brand-new unrelated table: same source, no cached dependents.
	if _, err := my.Exec("CREATE TABLE `bolt_on` (`id` BIGINT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CheckNow(); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Invalidations != 0 || st.Entries != 2 {
		t.Fatalf("stats after unrelated table add = %+v, want no evictions", st)
	}

	// A change to extra evicts only extra's entry.
	if _, err := my.Exec("INSERT INTO `extra` VALUES (2, 3.5)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.CheckNow(); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Invalidations != 1 || st.Entries != 1 {
		t.Fatalf("stats after extra change = %+v, want only extra's entry evicted", st)
	}
	hitsBefore := st.Hits
	if _, err := s.QueryContext(context.Background(), "SELECT event_id FROM events ORDER BY event_id"); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Hits; got != hitsBefore+1 {
		t.Fatalf("events entry should have survived extra's change: hits %d -> %d", hitsBefore, got)
	}
}

// TestConcurrentIdenticalQueriesCoalesce hammers one query from many
// goroutines; the singleflight layer must collapse them so the backends
// see far fewer executions than callers (race detector covers safety).
func TestConcurrentIdenticalQueriesCoalesce(t *testing.T) {
	s, _, _ := newCachedService(t)
	q := "SELECT e.event_id FROM events e JOIN runsinfo r ON e.run = r.run"
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.QueryContext(context.Background(), q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Exactly one execution must have reached the federation; every other
	// caller was a cache hit or piggybacked on the in-flight one.
	if fedQueries, _, _ := s.Federation().Stats(); fedQueries != 1 {
		t.Fatalf("federation executed %d times, want 1", fedQueries)
	}
	st := s.CacheStats()
	if st.Hits+st.Coalesced+st.Misses < callers {
		t.Fatalf("counters do not account for all callers: %+v", st)
	}
}

// TestCacheDisabledByDefault guards the compatibility contract: a service
// without CacheSize runs every query and reports zero cache stats.
func TestCacheDisabledByDefault(t *testing.T) {
	s := New(Config{Name: "jc-nocache"})
	defer s.Close()
	_, spec := mkMart(t, "nc_mart", sqlengine.DialectMySQL, "events", 4)
	addMart(t, s, "nc_mart", spec, "gridsql-mysql")
	if s.CacheEnabled() {
		t.Fatal("cache should be off by default")
	}
	for i := 0; i < 2; i++ {
		if _, err := s.QueryContext(context.Background(), "SELECT event_id FROM events ORDER BY event_id"); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.CacheStats(); st != (qcache.Stats{}) {
		t.Fatalf("stats = %+v, want zeros", st)
	}
	if n := s.CacheFlush(); n != 0 {
		t.Fatalf("flush on disabled cache = %d", n)
	}
}

// TestMartInvalidatorEvictsRefreshedTable exercises the warehouse-ETL
// wiring surface: the hook returned by MartInvalidator evicts entries for
// the refreshed mart table only.
func TestMartInvalidatorEvictsRefreshedTable(t *testing.T) {
	s, _, _ := newCachedService(t)
	if _, err := s.QueryContext(context.Background(), "SELECT event_id FROM events ORDER BY event_id"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryContext(context.Background(), "SELECT event_id FROM runsinfo ORDER BY event_id"); err != nil {
		t.Fatal(err)
	}
	refresh := s.MartInvalidator("cmart_my")
	refresh("EVENTS") // ETL table names may arrive in any case
	st := s.CacheStats()
	if st.Invalidations != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the events entry evicted and runsinfo kept", st)
	}
}

func ExampleService_CacheStats() {
	s := New(Config{Name: "doc", CacheSize: 8})
	defer s.Close()
	fmt.Println(s.CacheEnabled())
	// Output: true
}
