package dataaccess

// Location transparency as a checked property: the same queries, over the
// same rows, answered by a server that hosts every table and by one that
// reaches some of them on peers, must differ in nothing a client can see
// but the route label — because a peer is one more location of the one
// decomposed plan, not another planner.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqlengine"
)

// locationTables are the differential's four tables. lt_events is the
// smallest, so a join builds it wherever its partner lives (a peer table
// has no row count and the planner builds the side that has one); run 103
// has no lt_runs row, so LEFT joins pad and the anti-join is not empty.
var locationTables = map[string]string{
	"lt_events": `CREATE TABLE lt_events (event_id BIGINT PRIMARY KEY, run BIGINT, e_tot DOUBLE);
		INSERT INTO lt_events VALUES (1,100,1.5),(2,101,2.5),(3,102,3.5),(4,103,4.5),(5,100,5.5),(6,101,6.5)`,
	"lt_runs": `CREATE TABLE lt_runs (run BIGINT PRIMARY KEY, site VARCHAR(16), lumi DOUBLE);
		INSERT INTO lt_runs VALUES (100,'tier1',1.0),(101,'tier2',2.0),(102,'tier1',NULL),(110,'tier2',4.0),
			(111,'tier1',5.0),(112,'tier2',6.0),(113,'tier1',7.0),(114,'tier2',8.0)`,
	"lt_calib": `CREATE TABLE lt_calib (run BIGINT PRIMARY KEY, c DOUBLE);
		INSERT INTO lt_calib VALUES (100,0.97),(101,0.98),(102,0.99),(103,1.01),(104,1.02),(105,1.03),(106,1.04)`,
	"lt_tags": `CREATE TABLE lt_tags (run BIGINT PRIMARY KEY, tag VARCHAR(16));
		INSERT INTO lt_tags VALUES (100,'good'),(101,'bad'),(120,'good')`,
}

// hostTable serves one of locationTables from its own mart on s and
// returns the mart's name (engine registration is global: prefix keeps the
// two layouts apart).
func hostTable(t *testing.T, s *Service, prefix, table string) string {
	t.Helper()
	e := sqlengine.NewEngine(prefix+table, sqlengine.DialectMySQL)
	if err := e.ExecScript(locationTables[table]); err != nil {
		t.Fatal(err)
	}
	addEngineMart(t, s, e)
	return e.Name()
}

func TestLocationDoesNotMatter(t *testing.T) {
	// The reference: one engine holding all four tables. Both layouts share
	// the planner, so only it can tell a wrong plan from a right one.
	ref := sqlengine.NewEngine("lt_reference", sqlengine.DialectANSI)
	// Layout one: every table on a member database of the one server.
	local := New(Config{Name: "lt-local"})
	defer local.Close()
	localAt := map[string]string{} // table -> dependency source
	for table, script := range locationTables {
		if err := ref.ExecScript(script); err != nil {
			t.Fatal(err)
		}
		localAt[table] = hostTable(t, local, "lt_l_", table)
	}

	// Layout two: lt_events and lt_calib stay, lt_runs moves to one peer
	// and lt_tags to another.
	p := newRelayPair(t, Config{Name: "lt-host"}, Config{Name: "lt-fwd", RelayFetchSize: 3}, "", "", 0)
	defer p.close()
	third, thirdSrv := p.server(t, Config{Name: "lt-third"})
	defer func() { third.Close(); thirdSrv.Close() }()
	movedAt := map[string]string{
		"lt_events": hostTable(t, p.fwd, "lt_m_", "lt_events"),
		"lt_calib":  hostTable(t, p.fwd, "lt_m_", "lt_calib"),
		"lt_runs":   remoteDepPrefix + p.host.cfg.URL,
		"lt_tags":   remoteDepPrefix + third.cfg.URL,
	}
	hostTable(t, p.host, "lt_m_", "lt_runs")
	hostTable(t, third, "lt_m_", "lt_tags")

	const join = "SELECT e.event_id, r.site FROM lt_events e JOIN lt_runs r ON e.run = r.run"
	cases := []struct {
		name   string
		sql    string
		params []sqlengine.Value
		// operator is what both layouts must explain and run.
		operator string
		ordered  bool
		// relays is how many peer cursors the moved layout opens: one per
		// branch input and per subquery table at a peer.
		relays int64
		// schemaLookups is how many peers the moved layout asks for a
		// table's columns: only a shape that needs them asks.
		schemaLookups int64
	}{
		{name: "inner join", sql: join, operator: "pipelined hash-join(build=left)", relays: 1},
		{name: "left join", sql: "SELECT e.event_id, r.site FROM lt_events e LEFT JOIN lt_runs r ON e.run = r.run",
			operator: "pipelined hash-join(build=right)", relays: 1},
		{name: "anti-join", sql: "SELECT e.event_id FROM lt_events e LEFT JOIN lt_runs r ON e.run = r.run WHERE r.site IS NULL",
			operator: "pipelined hash-join(build=right)", relays: 1},
		{name: "union over two peers", sql: "SELECT r.run FROM lt_runs r UNION ALL SELECT g.run FROM lt_tags g",
			operator: "pipelined union(scan, scan)", relays: 2},
		{name: "peer table in two branches",
			sql:      "SELECT r.run FROM lt_runs r WHERE r.site = 'tier1' UNION ALL SELECT r.run FROM lt_runs r WHERE r.lumi IS NULL UNION ALL SELECT c.run FROM lt_calib c",
			operator: "pipelined union(scan, scan, scan)", relays: 2},
		{name: "peer self-join", sql: "SELECT a.run, b.site FROM lt_runs a JOIN lt_runs b ON a.run = b.run UNION ALL SELECT e.run, 'event' FROM lt_events e",
			operator: "pipelined union(hash-join(build=right), scan)", relays: 2},
		{name: "order by and limit", sql: join + " ORDER BY e.event_id DESC LIMIT 4",
			operator: "pipelined hash-join(build=left)", ordered: true, relays: 1},
		{name: "bare and qualified where", sql: join + " WHERE e_tot > 2 AND r.site = 'tier1'",
			operator: "pipelined hash-join(build=left)", relays: 1},
		{name: "parameter", sql: join + " WHERE e.e_tot > ? AND r.lumi < ?",
			params:   []sqlengine.Value{sqlengine.NewFloat(2), sqlengine.NewFloat(2.5)},
			operator: "pipelined hash-join(build=left)", relays: 1},
		{name: "one peer table with a parameter", sql: "SELECT r.run FROM lt_runs r WHERE r.lumi > ? UNION ALL SELECT c.run FROM lt_calib c WHERE c.c > ?",
			params:   []sqlengine.Value{sqlengine.NewFloat(4.5), sqlengine.NewFloat(1)},
			operator: "pipelined union(scan, scan)", relays: 1},
		{name: "two local tables and a peer", sql: "SELECT e.event_id, c.c FROM lt_events e JOIN lt_calib c ON e.run = c.run UNION ALL SELECT r.run, r.lumi FROM lt_runs r",
			operator: "pipelined union(hash-join(build=left), scan)", relays: 1},
		{name: "group by", sql: "SELECT r.site, COUNT(*), SUM(e.e_tot) FROM lt_events e JOIN lt_runs r ON e.run = r.run GROUP BY r.site",
			operator: "pipelined hash-join(build=left)", relays: 1},
		{name: "three tables", sql: join + " JOIN lt_calib c ON c.run = e.run WHERE c.c < 1",
			operator: "pipelined hash-join(build=left) + hash-join(build=right)", relays: 1},
		{name: "right join", sql: "SELECT e.event_id, r.site FROM lt_runs r RIGHT JOIN lt_events e ON e.run = r.run",
			operator: "pipelined hash-join(build=left)", relays: 1},
		{name: "comma join", sql: "SELECT e.event_id, r.site FROM lt_events e, lt_runs r WHERE e.run = r.run AND r.lumi > 1",
			operator: "pipelined hash-join(build=left)", relays: 1},
		{name: "subquery", sql: join + " WHERE e.run IN (SELECT c.run FROM lt_calib c WHERE c.c < 1)",
			operator: "pipelined hash-join(build=left)", relays: 1},
		{name: "subquery over a peer table", sql: "SELECT e.event_id FROM lt_events e WHERE EXISTS (SELECT 1 FROM lt_tags g WHERE g.run = e.run AND g.tag = 'good')",
			operator: "pipelined scan", relays: 1},
		{name: "star", sql: "SELECT * FROM lt_events e JOIN lt_runs r ON e.run = r.run",
			operator: "pipelined hash-join(build=left)", relays: 1, schemaLookups: 1},
	}

	// run answers one case on one layout and checks everything the layout
	// predicts: route label, server count, dependencies, operator.
	run := func(t *testing.T, s *Service, at map[string]string, sql string, params []sqlengine.Value, operator string) *sqlengine.ResultSet {
		t.Helper()
		ctx := context.Background()
		em, err := s.Explain(ctx, sql, params...)
		if err != nil {
			t.Fatal(err)
		}
		var wantDeps []string
		peers := map[string]bool{}
		for _, tbl := range em["tables"].([]interface{}) {
			src := at[tbl.(string)]
			wantDeps = append(wantDeps, src+" "+tbl.(string))
			if strings.HasPrefix(src, remoteDepPrefix) {
				peers[src] = true
			}
		}
		wantRoute, wantClass := RouteUnity, "unity-decomposed"
		if len(peers) > 0 {
			wantRoute, wantClass = RouteMixed, "mixed"
		}
		var deps []string
		for _, d := range em["deps"].([]interface{}) {
			pair := d.([]interface{})
			deps = append(deps, fmt.Sprintf("%s %s", pair[0], pair[1]))
		}
		sort.Strings(deps)
		sort.Strings(wantDeps)
		if !reflect.DeepEqual(deps, wantDeps) {
			t.Errorf("deps = %q, want %q", deps, wantDeps)
		}
		if len(peers) > 0 {
			// The mixed explain names which tables cross to which server.
			remote, _ := em["remote_tables"].(map[string]interface{})
			hosted, _ := em["local_tables"].([]interface{})
			relay, _ := em["relay"].(map[string]interface{})
			for tbl, url := range remote {
				if at[tbl] != remoteDepPrefix+url.(string) || relay[url.(string)] == nil {
					t.Errorf("remote_tables[%s] = %v (relay %v), want %s", tbl, url, relay, at[tbl])
				}
			}
			if len(remote)+len(hosted) != len(wantDeps) || len(relay) != len(peers) {
				t.Errorf("remote_tables %v + local_tables %v over relay %v do not cover tables %v", remote, hosted, relay, em["tables"])
			}
		}
		if op, _ := em["operator"].(string); em["route"] != wantClass || op != operator {
			t.Errorf("explain route/operator = %v/%q, want %s/%q", em["route"], op, wantClass, operator)
		}

		sr, err := s.QueryStreamContext(ctx, sql, params...)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Route != wantRoute || sr.Servers != 1+len(peers) {
			t.Errorf("route/servers = %s/%d, want %s/%d", sr.Route, sr.Servers, wantRoute, 1+len(peers))
		}
		return drainStream(t, sr)
	}

	// Each peer starts its cursor janitor, which lives as long as the server,
	// at its first cursor: open one on both before the per-case leak checks.
	warm, err := p.fwd.QueryStreamContext(context.Background(), "SELECT r.run FROM lt_runs r UNION ALL SELECT g.run FROM lt_tags g")
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, warm)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := leaktest.Check(t)
			allLocal := run(t, local, localAt, tc.sql, tc.params, tc.operator)

			q0, _, push0 := p.fwd.Federation().Stats()
			relays0, lookups0 := p.fwd.CursorStats().RelayOpens, p.fwd.Stats().SchemaLookups.Load()
			moved := run(t, p.fwd, movedAt, tc.sql, tc.params, tc.operator)

			one, err := ref.Query(tc.sql, tc.params...)
			if err != nil {
				t.Fatal(err)
			}
			if len(one.Rows) == 0 {
				t.Fatal("the reference answer is empty: the case checks nothing")
			}
			for layout, rs := range map[string]*sqlengine.ResultSet{"all local": allLocal, "tables moved": moved} {
				a, b := sortedRowKeys(rs.Rows), sortedRowKeys(one.Rows)
				if tc.ordered {
					a, b = []string{string(AppendRowsBinary(nil, rs.Rows))}, []string{string(AppendRowsBinary(nil, one.Rows))}
				}
				if !reflect.DeepEqual(rs.Columns, one.Columns) || !reflect.DeepEqual(a, b) {
					t.Errorf("%s: %v %v\n one engine answers %v %v (ordered=%v)", layout, rs.Columns, rs.Rows, one.Columns, one.Rows, tc.ordered)
				}
			}

			// One plan, executed once: the federation counts one query and no
			// pushdown however many of its tables are local.
			if q, _, push := p.fwd.Federation().Stats(); q-q0 != 1 || push != push0 {
				t.Errorf("federation counted %d queries and %d pushdowns for one mixed query, want 1 and 0", q-q0, push-push0)
			}
			if n := p.fwd.CursorStats().RelayOpens - relays0; n != tc.relays {
				t.Errorf("relay cursors opened = %d, want %d", n, tc.relays)
			}
			// Explain and the stream each resolve the query once.
			if n := p.fwd.Stats().SchemaLookups.Load() - lookups0; n != 2*tc.schemaLookups {
				t.Errorf("schema lookups = %d over explain and stream, want %d", n, 2*tc.schemaLookups)
			}

			// The drained stream released every peer cursor, and nothing it
			// started is still running.
			waitFor(t, 2*time.Second, func() bool { return p.host.CursorCount() == 0 && third.CursorCount() == 0 })
			if tr, ok := http.DefaultTransport.(*http.Transport); ok {
				tr.CloseIdleConnections()
			}
			checkLeaks()
		})
	}
}

// TestPeerCannotDescribeTable: a mixed star needs the peer table's
// columns; a peer that cannot describe the table fails the query with an
// error naming the table and the peer.
func TestPeerCannotDescribeTable(t *testing.T) {
	p := newRelayPair(t, Config{Name: "pd-host"}, Config{Name: "pd-fwd"}, "mart_pd_remote", "pd_remote", 4)
	defer p.close()
	_, evSpec := mkMart(t, "mart_pd_events", sqlengine.DialectMySQL, "pd_events", 4)
	addMart(t, p.fwd, "mart_pd_events", evSpec, "gridsql-mysql")
	p.hostSrv.Register("dataaccess.schema", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
		return nil, errors.New("no dictionary today")
	})
	_, err := p.fwd.QueryContext(context.Background(), "SELECT * FROM pd_events e JOIN pd_remote r ON e.event_id = r.event_id")
	if err == nil || !strings.Contains(err.Error(), `"pd_remote"`) || !strings.Contains(err.Error(), p.host.cfg.URL) {
		t.Fatalf("err = %v, want one naming pd_remote and %s", err, p.host.cfg.URL)
	}
	if n := p.fwd.Stats().SchemaLookups.Load(); n != 1 {
		t.Errorf("schema lookups = %d, want 1", n)
	}
}
