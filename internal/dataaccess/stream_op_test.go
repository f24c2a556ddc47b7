package dataaccess

// Tests for the pipelined streaming operators at the service layer: the
// decomposed streaming route must run on the operator pipeline (and say
// so in metrics and explain), spills must be visible in the gridrdb_spill
// metric family and leave no temp files behind — on drained streams and
// on abandoned ones alike — and the mixed local/remote route must feed
// the relay streams straight into the operators without materializing.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqlengine"
)

// counterValue reads one counter (bare name, no labels) from the metric
// snapshot.
func counterValue(t *testing.T, s *Service, name string) int64 {
	t.Helper()
	v, ok := s.Metrics().Snapshot()[name]
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("metric %q is %T, want int64", name, v)
	}
	return n
}

// spillLeftovers lists gridrdb spill directories remaining under dir.
func spillLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "gridrdb-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestStreamDecomposedUsesPipelinedOperators: the streamed cross-mart
// join runs pipelined (counter + slow-query explain say so), and so does
// the same join with a subquery.
func TestStreamDecomposedUsesPipelinedOperators(t *testing.T) {
	s := New(Config{Name: "jc-streamop", SlowQueryThreshold: time.Nanosecond})
	defer s.Close()
	_, mySpec := mkMart(t, "sop_my", sqlengine.DialectMySQL, "events", 10)
	_, msSpec := mkMart(t, "sop_ms", sqlengine.DialectMSSQL, "runsinfo", 6)
	addMart(t, s, "sop_my", mySpec, "gridsql-mysql")
	addMart(t, s, "sop_ms", msSpec, "gridsql-mssql")

	join := "SELECT e.event_id, r.e_tot FROM events e JOIN runsinfo r ON e.run = r.run"
	sr, err := s.QueryStreamContext(context.Background(), join)
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, sr)
	if n := counterValue(t, s, "gridrdb_stream_pipelined_total"); n != 1 {
		t.Fatalf("pipelined counter = %d, want 1", n)
	}
	slow := s.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("no slow-query capture")
	}
	op, _ := slow[0].Explain["operator"].(string)
	if op != "pipelined hash-join(build=right)" {
		t.Fatalf("slow-entry operator = %q", op)
	}

	sub := "SELECT e.event_id, r.e_tot FROM events e JOIN runsinfo r ON e.run = r.run WHERE e.run IN (SELECT run FROM runsinfo)"
	sr, err = s.QueryStreamContext(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, sr)
	if n := counterValue(t, s, "gridrdb_stream_pipelined_total"); n != 2 {
		t.Fatalf("pipelined counter = %d, want 2", n)
	}
	if op, _ = s.SlowQueries()[0].Explain["operator"].(string); op != "pipelined hash-join(build=right)" {
		t.Fatalf("subquery slow-entry operator = %q", op)
	}

	// system.explain reports the same decision without executing.
	em, err := s.Explain(context.Background(), join)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := em["operator"].(string); got != "pipelined hash-join(build=right)" {
		t.Fatalf("explain operator = %q", got)
	}
	if b, _ := em["budgets"].(map[string]interface{}); b["scratch_max_bytes"] != int64(0) {
		t.Fatalf("explain budgets lack scratch_max_bytes: %v", b)
	}
}

// TestStreamSpillMetricsAndCleanup: a 1-byte ScratchMaxBytes forces the
// buffering operators to disk; the spill shows up in the metric family
// and the slow-query capture, the rows still match one engine holding
// both tables, and no spill directory survives the drained stream.
func TestStreamSpillMetricsAndCleanup(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	s := New(Config{Name: "jc-spill", ScratchMaxBytes: 1, SlowQueryThreshold: time.Nanosecond})
	defer s.Close()
	_, mySpec := mkMart(t, "spl_my", sqlengine.DialectMySQL, "events", 40)
	_, msSpec := mkMart(t, "spl_ms", sqlengine.DialectMSSQL, "runsinfo", 30)
	addMart(t, s, "spl_my", mySpec, "gridsql-mysql")
	addMart(t, s, "spl_ms", msSpec, "gridsql-mssql")

	// The 1-byte budget forces a Grace spill of the hash build.
	q := "SELECT e.event_id FROM events e JOIN runsinfo r ON e.run = r.run"
	want, err := oneEngine(t, map[string]int{"events": 40, "runsinfo": 30}).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, sr)
	if !reflect.DeepEqual(sortedRowKeys(got.Rows), sortedRowKeys(want.Rows)) {
		t.Fatalf("streamed %d rows, one engine %d, or different ones", len(got.Rows), len(want.Rows))
	}

	if n := counterValue(t, s, "gridrdb_spilled_queries_total"); n != 1 {
		t.Fatalf("spilled queries = %d, want 1", n)
	}
	if n := counterValue(t, s, "gridrdb_spill_partitions_total"); n <= 0 {
		t.Fatalf("spill partitions = %d, want > 0", n)
	}
	if n := counterValue(t, s, "gridrdb_spill_bytes_total"); n <= 0 {
		t.Fatalf("spill bytes = %d, want > 0", n)
	}
	var entry map[string]interface{}
	for _, e := range s.SlowQueries() {
		if e.SQL == q && e.Route == "unity-decomposed" {
			entry = e.Explain
			break
		}
	}
	if entry == nil {
		t.Fatal("no slow-query capture for the spilled stream")
	}
	if _, ok := entry["spill"].(map[string]interface{}); !ok {
		t.Fatalf("slow entry has no spill block: %v", entry)
	}
	if left := spillLeftovers(t, tmp); len(left) != 0 {
		t.Fatalf("spill directories left behind: %v", left)
	}

	// The materialized entry drains the same pipeline: it spills too, says
	// so in its own slow-query capture, and cleans up after the drain.
	qr, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRowKeys(qr.Rows), sortedRowKeys(want.Rows)) {
		t.Fatalf("materialized %d rows, one engine %d, or different ones", len(qr.Rows), len(want.Rows))
	}
	if n := counterValue(t, s, "gridrdb_spilled_queries_total"); n != 2 {
		t.Fatalf("spilled queries = %d after the materialized run, want 2", n)
	}
	if _, ok := s.SlowQueries()[0].Explain["spill"].(map[string]interface{}); !ok {
		t.Fatalf("materialized slow entry has no spill block: %v", s.SlowQueries()[0].Explain)
	}
	if left := spillLeftovers(t, tmp); len(left) != 0 {
		t.Fatalf("spill directories left behind by the materialized run: %v", left)
	}
}

// TestStreamCancelMidSpilledJoin: abandoning a spilled pipelined join
// mid-stream (context cancel + close after a few rows) releases the spill
// directories and strands no goroutines.
func TestStreamCancelMidSpilledJoin(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	checkLeaks := leaktest.Check(t)
	s := New(Config{Name: "jc-spillcancel", ScratchMaxBytes: 1})
	defer s.Close()
	_, mySpec := mkMart(t, "spc_my", sqlengine.DialectMySQL, "events", 60)
	_, msSpec := mkMart(t, "spc_ms", sqlengine.DialectMSSQL, "runsinfo", 40)
	addMart(t, s, "spc_my", mySpec, "gridsql-mysql")
	addMart(t, s, "spc_ms", msSpec, "gridsql-mssql")

	ctx, cancel := context.WithCancel(context.Background())
	q := "SELECT e.event_id FROM events e JOIN runsinfo r ON e.run = r.run UNION ALL SELECT event_id FROM events"
	sr, err := s.QueryStreamContext(ctx, q)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	cancel()
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if left := spillLeftovers(t, tmp); len(left) != 0 {
		t.Fatalf("spill directories left after abandoned stream: %v", left)
	}
	s.Close()
	checkLeaks()
}

// TestStreamMixedPipelined: a streamed join between a local mart and a
// table on another server runs on the operator pipeline — the remote side
// relayed page by page straight into the hash join, nothing materialized
// — and produces exactly the materialized mixed answer.
func TestStreamMixedPipelined(t *testing.T) {
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()
	mk := func(name string) (*Service, *clarens.Server) {
		svc := New(Config{Name: name, RLS: rls.NewClient(rlsURL)})
		srv := clarens.NewServer(true)
		svc.RegisterMethods(srv)
		url, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svc.SetURL(url)
		return svc, srv
	}
	jc1, srv1 := mk("smixed-1")
	defer func() { jc1.Close(); srv1.Close() }()
	jc2, srv2 := mk("smixed-2")
	defer func() { jc2.Close(); srv2.Close() }()

	_, evSpec := mkMart(t, "mart_smixed_events", sqlengine.DialectMySQL, "sm_events", 40)
	addMart(t, jc1, "mart_smixed_events", evSpec, "gridsql-mysql")
	runs := sqlengine.NewEngine("mart_smixed_runs", sqlengine.DialectMySQL)
	if _, err := runs.Exec("CREATE TABLE `sm_runs` (`run` BIGINT PRIMARY KEY, `site` VARCHAR(16))"); err != nil {
		t.Fatal(err)
	}
	for run, site := range map[int]string{100: "tier1", 101: "tier2"} {
		if _, err := runs.Exec(fmt.Sprintf("INSERT INTO `sm_runs` VALUES (%d, '%s')", run, site)); err != nil {
			t.Fatal(err)
		}
	}
	addEngineMart(t, jc2, runs)

	q := "SELECT e.event_id, r.site FROM sm_events e JOIN sm_runs r ON e.run = r.run WHERE r.site = 'tier1'"
	sr, err := jc1.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Route != RouteMixed || sr.Servers != 2 {
		t.Fatalf("route=%s servers=%d, want mixed/2", sr.Route, sr.Servers)
	}
	got := drainStream(t, sr)
	if len(got.Rows) != 20 {
		t.Fatalf("streamed join returned %d rows, want 20 (run 100 half)", len(got.Rows))
	}
	if n := counterValue(t, jc1, "gridrdb_stream_pipelined_total"); n != 1 {
		t.Fatalf("pipelined counter = %d, want 1", n)
	}
	// The remote side travelled as a relay feeding the operators.
	if st := jc1.CursorStats(); st.RelayOpens != 1 {
		t.Fatalf("relay opens = %d, want 1", st.RelayOpens)
	}
	// The drained stream released the peer's cursor.
	waitFor(t, 2*time.Second, func() bool { return jc2.CursorCount() == 0 })

	// Identical to the materialized mixed integration.
	qr, err := jc1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if string(sqlengine.AppendRowFrame(nil, got.Rows)) != string(sqlengine.AppendRowFrame(nil, qr.Rows)) {
		t.Fatal("pipelined rows differ from the materialized integration")
	}

	// system.explain reports the mixed operator decision without executing.
	em, err := jc1.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// sm_events has a spec row count and the peer's table none: the known
	// side is the build, the relay the probe.
	if op, _ := em["operator"].(string); op != "pipelined hash-join(build=left)" {
		t.Fatalf("explain operator = %q, want pipelined hash-join(build=left)", op)
	}
}

// TestStreamMixedSubquery: a mixed join with a subquery runs on the
// operator pipeline — the peer's table relayed into the join, the local
// table the subquery reads drained — and answers what one engine holding
// both tables answers.
func TestStreamMixedSubquery(t *testing.T) {
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()
	mk := func(name string) (*Service, *clarens.Server) {
		svc := New(Config{Name: name, RLS: rls.NewClient(rlsURL)})
		srv := clarens.NewServer(true)
		svc.RegisterMethods(srv)
		url, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svc.SetURL(url)
		return svc, srv
	}
	jc1, srv1 := mk("sfall-1")
	defer func() { jc1.Close(); srv1.Close() }()
	jc2, srv2 := mk("sfall-2")
	defer func() { jc2.Close(); srv2.Close() }()

	_, evSpec := mkMart(t, "mart_sfall_events", sqlengine.DialectMySQL, "sf_events", 12)
	addMart(t, jc1, "mart_sfall_events", evSpec, "gridsql-mysql")
	_, rSpec := mkMart(t, "mart_sfall_runs", sqlengine.DialectMySQL, "sf_runs", 6)
	addMart(t, jc2, "mart_sfall_runs", rSpec, "gridsql-mysql")

	q := "SELECT e.event_id, r.e_tot FROM sf_events e JOIN sf_runs r ON e.run = r.run WHERE e.run IN (SELECT run FROM sf_events)"
	sr, err := jc1.QueryStreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Route != RouteMixed {
		t.Fatalf("route = %s, want mixed", sr.Route)
	}
	got := drainStream(t, sr)
	want, err := oneEngine(t, map[string]int{"sf_events": 12, "sf_runs": 6}).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// 6 events x 3 runs rows for each of runs 100 and 101.
	if len(got.Rows) != 36 || !reflect.DeepEqual(sortedRowKeys(got.Rows), sortedRowKeys(want.Rows)) {
		t.Fatalf("join returned %d rows, one engine %d, or different ones", len(got.Rows), len(want.Rows))
	}
	if n := counterValue(t, jc1, "gridrdb_stream_pipelined_total"); n != 1 {
		t.Fatalf("pipelined counter = %d, want 1", n)
	}
	if st := jc1.CursorStats(); st.RelayOpens != 1 {
		t.Fatalf("relay opens = %d, want 1", st.RelayOpens)
	}
}

// TestStreamSpillDirHonorsTempDir is a guard for the test setup itself:
// the spill layer creates its directories under os.TempDir, which the
// cleanup assertions above redirect via TMPDIR.
func TestStreamSpillDirHonorsTempDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if got := os.TempDir(); got != tmp {
		t.Skipf("os.TempDir() = %q ignores TMPDIR on this platform", got)
	}
}

// ---- one decision, one path: materialized == drained stream ----

// sortedRowKeys encodes each row under the binary row codec and sorts the
// encodings: equal slices mean equal row multisets.
func sortedRowKeys(rows []sqlengine.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = string(sqlengine.AppendRowFrame(nil, []sqlengine.Row{r}))
	}
	sort.Strings(keys)
	return keys
}

// routeCounts snapshots the per-module routing counters and the
// pipelined operator counter.
func routeCounts(t *testing.T, s *Service) [5]int64 {
	st := s.Stats()
	return [5]int64{st.RAL.Load(), st.Unity.Load(), st.Forwarded.Load(), st.Mixed.Load(),
		counterValue(t, s, "gridrdb_stream_pipelined_total")}
}

// TestQueryIsTheDrainedStream runs one query per resolver outcome through
// both entry points, with the cache off and on: the materialized answer
// must be the drained stream — same rows (and one engine's holding every
// table), same route and server count,
// same routing- and operator-counter movement — and what system.explain
// predicts must be what the slow-query ring captured for each execution.
// The one sanctioned difference: a single-remote query is one forward
// for the materialized caller and a cursor relay for the streaming one.
func TestQueryIsTheDrainedStream(t *testing.T) {
	cases := []struct {
		name    string
		sql     string
		params  []sqlengine.Value
		route   Route
		servers int
		class   string
		// operator is the executed operator ("" where the route has none).
		operator string
		ordered  bool // ORDER BY is total: rows compare in order
	}{
		{name: "pool-ral", sql: "SELECT event_id, e_tot FROM eq_events WHERE run = 101",
			route: RoutePOOLRAL, servers: 1, class: "pool-ral", operator: "pushdown"},
		{name: "pushdown", sql: "SELECT event_id, run FROM eq_runs WHERE run = 100 ORDER BY event_id",
			route: RouteUnity, servers: 1, class: "unity-pushdown", operator: "pushdown", ordered: true},
		{name: "pushdown with params", sql: "SELECT event_id FROM eq_events WHERE run = ? ORDER BY event_id",
			params: []sqlengine.Value{sqlengine.NewInt(101)},
			route:  RouteUnity, servers: 1, class: "unity-pushdown", operator: "pushdown", ordered: true},
		{name: "pipelined hash join", sql: "SELECT e.event_id, r.e_tot FROM eq_events e JOIN eq_runs r ON e.run = r.run",
			route: RouteUnity, servers: 1, class: "unity-decomposed", operator: "pipelined hash-join(build=right)"},
		{name: "pipelined hash join ordered with params",
			sql:    "SELECT e.event_id AS eid, r.event_id AS rid FROM eq_events e JOIN eq_runs r ON e.run = r.run WHERE e.event_id < ? ORDER BY eid, rid",
			params: []sqlengine.Value{sqlengine.NewInt(9)},
			route:  RouteUnity, servers: 1, class: "unity-decomposed", operator: "pipelined hash-join(build=right)", ordered: true},
		{name: "pipelined aggregate", sql: "SELECT r.run, COUNT(*) FROM eq_events e JOIN eq_runs r ON e.run = r.run GROUP BY r.run",
			route: RouteUnity, servers: 1, class: "unity-decomposed", operator: "pipelined hash-join(build=right)"},
		// "scratch fallback" and "scratch mixed" are the subquery shapes,
		// named for the scratch integration that once served them.
		{name: "scratch fallback", sql: "SELECT r.run, e.event_id FROM eq_events e JOIN eq_runs r ON e.run = r.run WHERE e.run IN (SELECT run FROM eq_runs)",
			route: RouteUnity, servers: 1, class: "unity-decomposed", operator: "pipelined hash-join(build=right)"},
		{name: "single remote: forward vs relay", sql: "SELECT event_id, e_tot FROM eq_remote WHERE run = 101",
			route: RouteRemote, servers: 2, class: "remote"},
		{name: "mixed hash join", sql: "SELECT e.event_id, x.e_tot FROM eq_events e JOIN eq_remote x ON e.event_id = x.event_id WHERE x.run = 100",
			route: RouteMixed, servers: 2, class: "mixed", operator: "pipelined hash-join(build=left)"},
		{name: "mixed scan with params", sql: "SELECT x.event_id FROM eq_remote x WHERE x.run = ? ORDER BY x.event_id",
			params: []sqlengine.Value{sqlengine.NewInt(100)},
			route:  RouteMixed, servers: 2, class: "mixed", operator: "pipelined scan", ordered: true},
		{name: "mixed aggregate", sql: "SELECT x.run, COUNT(*) FROM eq_events e JOIN eq_remote x ON e.run = x.run GROUP BY x.run",
			route: RouteMixed, servers: 2, class: "mixed", operator: "pipelined hash-join(build=left)"},
		{name: "scratch mixed", sql: "SELECT x.run, e.event_id FROM eq_events e JOIN eq_remote x ON e.run = x.run WHERE x.run IN (SELECT run FROM eq_events)",
			route: RouteMixed, servers: 2, class: "mixed", operator: "pipelined hash-join(build=left)"},
	}
	ref := oneEngine(t, map[string]int{"eq_events": 16, "eq_runs": 10, "eq_remote": 24})
	for _, cached := range []bool{false, true} {
		tag := "nocache"
		cfg := Config{Name: "eq-fwd", SlowQueryThreshold: time.Nanosecond}
		if cached {
			tag = "cache"
			cfg.CacheSize, cfg.CacheMaxBytes = 64, 1<<20
		}
		t.Run(tag, func(t *testing.T) {
			p := newRelayPair(t, Config{Name: "eq-host"}, cfg, "mart_eq_remote_"+tag, "eq_remote", 24)
			defer p.close()
			s := p.fwd
			_, evSpec := mkMart(t, "mart_eq_events_"+tag, sqlengine.DialectMySQL, "eq_events", 16)
			_, runSpec := mkMart(t, "mart_eq_runs_"+tag, sqlengine.DialectMSSQL, "eq_runs", 10)
			addMart(t, s, "mart_eq_events_"+tag, evSpec, "gridsql-mysql")
			addMart(t, s, "mart_eq_runs_"+tag, runSpec, "gridsql-mssql")
			ctx := context.Background()

			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					em, err := s.Explain(ctx, tc.sql, tc.params...)
					if err != nil {
						t.Fatal(err)
					}
					if em["route"] != tc.class {
						t.Fatalf("explain route = %v, want %s", em["route"], tc.class)
					}
					// What the slow ring captured for the execution that just
					// ran must be what explain predicted.
					checkCaptured := func(entry string) {
						t.Helper()
						e := s.SlowQueries()[0]
						if e.SQL != tc.sql || e.Route != tc.class {
							t.Fatalf("%s: captured %q on route %q, want this query on %s", entry, e.SQL, e.Route, tc.class)
						}
						op, _ := e.Explain["operator"].(string)
						if op != tc.operator {
							t.Errorf("%s: executed operator = %q, want %q", entry, op, tc.operator)
						}
						if xop, _ := em["operator"].(string); op != xop {
							t.Errorf("%s: executed %q but explain predicted %q", entry, op, xop)
						}
					}

					s.CacheFlush()
					before, relaysBefore := routeCounts(t, s), s.CursorStats().RelayOpens
					qr, err := s.QueryContext(ctx, tc.sql, tc.params...)
					if err != nil {
						t.Fatal(err)
					}
					queryDelta, relaysQuery := routeCounts(t, s), s.CursorStats().RelayOpens
					checkCaptured("query")

					s.CacheFlush()
					sr, err := s.QueryStreamContext(ctx, tc.sql, tc.params...)
					if err != nil {
						t.Fatal(err)
					}
					streamRoute, streamServers := sr.Route, sr.Servers
					got := drainStream(t, sr)
					streamDelta := routeCounts(t, s)
					checkCaptured("stream")

					for i := range before {
						streamDelta[i] -= queryDelta[i]
						queryDelta[i] -= before[i]
					}
					if queryDelta != streamDelta {
						t.Errorf("routing/operator counters moved %v for the query, %v for the stream", queryDelta, streamDelta)
					}
					if tc.route == RouteRemote {
						if q, st := relaysQuery-relaysBefore, s.CursorStats().RelayOpens-relaysQuery; q != 0 || st != 1 {
							t.Errorf("relay cursors opened: %d by the query, %d by the stream; want 0 (forward) and 1 (relay)", q, st)
						}
					}
					if qr.Route != tc.route || qr.Servers != tc.servers {
						t.Errorf("query route/servers = %s/%d, want %s/%d", qr.Route, qr.Servers, tc.route, tc.servers)
					}
					if streamRoute != qr.Route || streamServers != qr.Servers {
						t.Errorf("stream route/servers = %s/%d, query %s/%d", streamRoute, streamServers, qr.Route, qr.Servers)
					}

					same := func(what string, rows []sqlengine.Row) {
						t.Helper()
						if len(rows) == 0 || len(rows) != len(qr.Rows) {
							t.Fatalf("%s has %d rows, query %d (want equal, non-empty)", what, len(rows), len(qr.Rows))
						}
						a, b := sortedRowKeys(rows), sortedRowKeys(qr.Rows)
						if tc.ordered {
							a, b = []string{string(sqlengine.AppendRowFrame(nil, rows))}, []string{string(sqlengine.AppendRowFrame(nil, qr.Rows))}
						}
						if !reflect.DeepEqual(a, b) {
							t.Errorf("%s rows differ from the query's (ordered=%v)", what, tc.ordered)
						}
					}
					same("drained stream", got.Rows)
					one, err := ref.Query(tc.sql, tc.params...)
					if err != nil {
						t.Fatal(err)
					}
					same("one engine's answer", one.Rows)
					if cached {
						// The stream's tee filled the cache; a repeat is served
						// from it with the executed route still attached.
						hit, err := s.QueryContext(ctx, tc.sql, tc.params...)
						if err != nil {
							t.Fatal(err)
						}
						if e := s.SlowQueries()[0]; e.Route != "cache" {
							t.Errorf("repeat ran on route %q, want a cache hit", e.Route)
						}
						if hit.Route != qr.Route || hit.Servers != qr.Servers {
							t.Errorf("cached route/servers = %s/%d, executed %s/%d", hit.Route, hit.Servers, qr.Route, qr.Servers)
						}
						same("cached answer", hit.Rows)
					}
				})
			}
		})
	}
}

// TestQueryCancelMidDrain: a materialized query whose caller gives up
// while the drain is blocked on a stalled source returns the cancellation,
// closes every source cursor (on the peer too, where the stall is behind
// a forward or a relay), frees its admission slot, leaves no spill
// directory and strands no goroutine. The stalled source serves five rows
// and then blocks until its query's context ends.
func TestQueryCancelMidDrain(t *testing.T) {
	cases := []struct {
		name      string
		sql       string
		stallPeer bool // the stalled source lives on the other server
		class     string
		operator  string
		spills    bool
	}{
		{name: "pushdown", sql: "SELECT a FROM paged_t", class: "unity-pushdown", operator: "pushdown"},
		{name: "pipelined join, spilling", sql: "SELECT p.a, e.e_tot FROM paged_t p JOIN cmd_events e ON p.a = e.event_id",
			class: "unity-decomposed", operator: "pipelined hash-join(build=right)", spills: true},
		{name: "forward", sql: "SELECT a FROM paged_t", stallPeer: true, class: "remote"},
		// The build is the side with a row count — cmd_events, spilled under
		// the 1-byte budget — and the stalled relay is the probe.
		{name: "mixed join over a relay", stallPeer: true, class: "mixed", operator: "pipelined hash-join(build=left)",
			sql: "SELECT e.event_id, p.a FROM cmd_events e JOIN paged_t p ON e.event_id = p.a", spills: true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			checkLeaks := leaktest.Check(t)
			gate := Config{MaxInFlight: 2, ScratchMaxBytes: 1}
			hostCfg, fwdCfg := gate, gate
			hostCfg.Name, fwdCfg.Name = "cmd-host", "cmd-fwd"
			mart := fmt.Sprintf("mart_cmd_%d", i)
			p := newRelayPair(t, hostCfg, fwdCfg, "", "", 0)
			defer p.close()
			_, evSpec := mkMart(t, mart, sqlengine.DialectMySQL, "cmd_events", 30)
			addMart(t, p.fwd, mart, evSpec, "gridsql-mysql")
			d, ref, spec := registerPagedSource(100, 5)
			stalled := p.fwd
			if tc.stallPeer {
				stalled = p.host
			}
			if err := stalled.AddDatabase(ref, spec, "", ""); err != nil {
				t.Fatal(err)
			}

			em, err := p.fwd.Explain(context.Background(), tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if op, _ := em["operator"].(string); em["route"] != tc.class || op != tc.operator {
				t.Fatalf("route/operator = %v/%q, want %s/%q", em["route"], op, tc.class, tc.operator)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-d.blocked
				cancel()
			}()
			if _, err := p.fwd.QueryContext(ctx, tc.sql); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			waitFor(t, 5*time.Second, func() bool { return d.rowsClosed.Load() == 1 })
			waitFor(t, 5*time.Second, func() bool {
				return p.fwd.LoadStats().InFlight == 0 && p.host.LoadStats().InFlight == 0 &&
					p.host.CursorCount() == 0
			})
			if spilled := counterValue(t, p.fwd, "gridrdb_spilled_queries_total") == 1; spilled != tc.spills {
				t.Errorf("query spilled = %v, want %v", spilled, tc.spills)
			}
			if left := spillLeftovers(t, tmp); len(left) != 0 {
				t.Errorf("spill directories left behind: %v", left)
			}
			p.close()
			if tr, ok := http.DefaultTransport.(*http.Transport); ok {
				tr.CloseIdleConnections()
			}
			checkLeaks()
		})
	}
}
