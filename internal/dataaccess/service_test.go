package dataaccess

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"gridrdb/internal/clarens"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// mkMart builds a mart engine with an ntuple-ish table, registers it for
// local:// access, and returns its spec.
func mkMart(t testing.TB, name string, d *sqlengine.Dialect, table string, rows int) (*sqlengine.Engine, *xspec.LowerSpec) {
	t.Helper()
	e := sqlengine.NewEngine(name, d)
	martTable(t, e, table, rows)
	sqldriver.RegisterEngine(e)
	t.Cleanup(func() { sqldriver.UnregisterEngine(name) })
	spec, err := xspec.Generate(name, d.Name, e)
	if err != nil {
		t.Fatal(err)
	}
	return e, spec
}

// martTable creates mkMart's table on e: rows (i, 100 + i%2, i + 0.5).
func martTable(t testing.TB, e *sqlengine.Engine, table string, rows int) {
	t.Helper()
	d := e.Dialect()
	q := d.QuoteIdent
	ddl := fmt.Sprintf("CREATE TABLE %s (%s BIGINT PRIMARY KEY, %s BIGINT, %s DOUBLE)",
		q(table), q("event_id"), q("run"), q("e_tot"))
	if d == sqlengine.DialectOracle {
		ddl = strings.Replace(ddl, "BIGINT", "NUMBER", 2)
		ddl = strings.Replace(ddl, "DOUBLE", "BINARY_DOUBLE", 1)
	}
	if _, err := e.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= rows; i++ {
		sql := fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %g)", q(table), i, 100+i%2, float64(i)+0.5)
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
}

// oneEngine holds mkMart's tables of the given sizes in one engine: the
// reference a federated answer must equal, wherever the tables live.
func oneEngine(t *testing.T, rows map[string]int) *sqlengine.Engine {
	t.Helper()
	ref := sqlengine.NewEngine("reference", sqlengine.DialectANSI)
	for table, n := range rows {
		martTable(t, ref, table, n)
	}
	return ref
}

func addMart(t testing.TB, s *Service, name string, spec *xspec.LowerSpec, driver string) {
	t.Helper()
	if err := s.AddDatabase(xspec.SourceRef{Name: name, URL: "local://" + name, Driver: driver}, spec, "", ""); err != nil {
		t.Fatal(err)
	}
}

// TestAnswerHeaderIndependentOfRoute: a mart that stores a table's
// columns under other names than the logical ones answers under the
// logical names whichever route serves the query, streamed or not.
func TestAnswerHeaderIndependentOfRoute(t *testing.T) {
	s := New(Config{Name: "jc-headers"})
	defer s.Close()
	_, spec := mkMart(t, "hdr_my", sqlengine.DialectMySQL, "EVT_T01", 3)
	tbl := &spec.Tables[0]
	tbl.Logical = "events"
	for phys, logical := range map[string]string{"event_id": "id", "e_tot": "energy"} {
		for j := range tbl.Columns {
			if strings.EqualFold(tbl.Columns[j].Name, phys) {
				tbl.Columns[j].Logical = logical
			}
		}
	}
	addMart(t, s, "hdr_my", spec, "gridsql-mysql")
	for _, c := range []struct {
		sql   string
		route Route
		cols  []string
	}{
		{"SELECT id, energy FROM events WHERE run = 101", RoutePOOLRAL, []string{"id", "energy"}},
		{"SELECT * FROM events", RoutePOOLRAL, []string{"id", "run", "energy"}},
		{"SELECT energy, id FROM events ORDER BY id", RouteUnity, []string{"energy", "id"}},
	} {
		qr, err := s.QueryContext(context.Background(), c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		sr, err := s.QueryStreamContext(context.Background(), c.sql)
		if err != nil {
			t.Fatalf("%s (stream): %v", c.sql, err)
		}
		sr.Close()
		if qr.Route != c.route || sr.Route != c.route {
			t.Errorf("%s: routes %s and %s (stream), want %s", c.sql, qr.Route, sr.Route, c.route)
		}
		if strings.Join(qr.Columns, ",") != strings.Join(c.cols, ",") || strings.Join(sr.Columns(), ",") != strings.Join(c.cols, ",") {
			t.Errorf("%s: headed %v and %v (stream), want %v", c.sql, qr.Columns, sr.Columns(), c.cols)
		}
	}
}

func TestRoutingRALvsUnity(t *testing.T) {
	s := New(Config{Name: "jc1"})
	defer s.Close()
	_, mySpec := mkMart(t, "mart_my", sqlengine.DialectMySQL, "events", 10)
	_, msSpec := mkMart(t, "mart_ms", sqlengine.DialectMSSQL, "runsinfo", 4)
	addMart(t, s, "mart_my", mySpec, "gridsql-mysql")
	addMart(t, s, "mart_ms", msSpec, "gridsql-mssql")

	// Simple single-table query on a POOL-supported vendor -> RAL path.
	qr, err := s.QueryContext(context.Background(), "SELECT event_id, e_tot FROM events WHERE run = 101")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RoutePOOLRAL {
		t.Errorf("route = %s, want pool-ral", qr.Route)
	}
	if len(qr.Rows) != 5 {
		t.Errorf("rows = %d", len(qr.Rows))
	}

	// Same query shape on the MS-SQL mart (not POOL-supported) -> Unity.
	qr, err = s.QueryContext(context.Background(), "SELECT event_id FROM runsinfo WHERE run = 101")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteUnity {
		t.Errorf("route = %s, want unity", qr.Route)
	}

	// Aggregate on the POOL vendor: shape does not fit RAL -> Unity.
	qr, err = s.QueryContext(context.Background(), "SELECT COUNT(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteUnity {
		t.Errorf("aggregate route = %s, want unity", qr.Route)
	}
	if qr.Rows[0][0].Int != 10 {
		t.Errorf("count = %v", qr.Rows[0][0])
	}

	// Cross-database join -> Unity (distributed).
	qr, err = s.QueryContext(context.Background(), "SELECT e.event_id FROM events e JOIN runsinfo r ON e.run = r.run")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteUnity {
		t.Errorf("join route = %s", qr.Route)
	}

	st := s.Stats()
	if st.RAL.Load() != 1 || st.Unity.Load() != 3 {
		t.Errorf("stats: ral=%d unity=%d", st.RAL.Load(), st.Unity.Load())
	}
}

// twoServerDeployment starts an RLS plus two Clarens-fronted services:
// jc1 hosts "events", jc2 hosts "runsinfo" and "calib".
func twoServerDeployment(t *testing.T) (*Service, *Service) {
	t.Helper()
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { catalog.Close() })

	mk := func(name string) (*Service, *clarens.Server) {
		svc, srv, _, err := Start(Config{Name: name, Open: true, RLS: rls.NewClient(rlsURL)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); svc.Close() })
		return svc, srv
	}
	jc1, _ := mk("jc1")
	jc2, _ := mk("jc2")

	_, evSpec := mkMart(t, "d_events", sqlengine.DialectMySQL, "events", 12)
	addMart(t, jc1, "d_events", evSpec, "gridsql-mysql")

	_, runSpec := mkMart(t, "d_runs", sqlengine.DialectMSSQL, "runsinfo", 6)
	addMart(t, jc2, "d_runs", runSpec, "gridsql-mssql")
	_, calSpec := mkMart(t, "d_calib", sqlengine.DialectSQLite, "calib", 3)
	addMart(t, jc2, "d_calib", calSpec, "gridsql-sqlite")
	return jc1, jc2
}

// TestStartOneInstance: Start refuses a closed server with no users, and
// otherwise serves every method and /metrics at the bound URL while the
// service advertises Config.URL when it is set, the bound URL otherwise.
func TestStartOneInstance(t *testing.T) {
	if _, _, _, err := Start(Config{Name: "closed"}); err == nil || !strings.Contains(err.Error(), "no users") {
		t.Fatalf("closed server without users: err = %v", err)
	}
	for _, advertise := range []string{"", "http://jc.example:9410"} {
		svc, srv, url, err := Start(Config{Name: "one", Users: map[string]string{"u": "p"}, URL: advertise})
		if err != nil {
			t.Fatal(err)
		}
		want := advertise
		if want == "" {
			want = url
		}
		if svc.cfg.URL != want {
			t.Errorf("advertised URL = %q, want %q (bound %q)", svc.cfg.URL, want, url)
		}
		c := clarens.NewClient(url)
		if err := c.LoginContext(context.Background(), "u", "p"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CallContext(context.Background(), "dataaccess.tables"); err != nil {
			t.Errorf("dataaccess.tables: %v", err)
		}
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/metrics status %d", resp.StatusCode)
		}
		srv.Close()
		svc.Close()
	}
}

func TestRemoteForwardingViaRLS(t *testing.T) {
	jc1, _ := twoServerDeployment(t)

	// jc1 does not host runsinfo; it must look it up in the RLS and
	// forward the whole query to jc2.
	qr, err := jc1.QueryContext(context.Background(), "SELECT event_id FROM runsinfo WHERE run = 101")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteRemote || qr.Servers != 2 {
		t.Errorf("route=%s servers=%d, want remote/2", qr.Route, qr.Servers)
	}
	if len(qr.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(qr.Rows))
	}
	if jc1.Stats().RLSLookups.Load() == 0 {
		t.Error("no RLS lookups recorded")
	}
}

func TestMixedLocalRemoteJoin(t *testing.T) {
	jc1, _ := twoServerDeployment(t)
	// events is local to jc1, runsinfo lives on jc2: per-table fetch +
	// local integration.
	qr, err := jc1.QueryContext(context.Background(), "SELECT e.event_id, r.e_tot FROM events e JOIN runsinfo r ON e.run = r.run ORDER BY e.event_id")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteMixed || qr.Servers != 2 {
		t.Errorf("route=%s servers=%d, want mixed/2", qr.Route, qr.Servers)
	}
	if len(qr.Rows) == 0 {
		t.Error("mixed join returned no rows")
	}
}

func TestRemoteTwoServerFourTables(t *testing.T) {
	jc1, _ := twoServerDeployment(t)
	// Table 1's hardest row: multiple tables across 2 servers.
	qr, err := jc1.QueryContext(context.Background(), "SELECT e.event_id, r.run, c.event_id AS cal FROM events e JOIN runsinfo r ON e.run = r.run JOIN calib c ON c.run = r.run")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteMixed {
		t.Errorf("route = %s", qr.Route)
	}
	if qr.Servers != 2 {
		t.Errorf("servers = %d", qr.Servers)
	}
}

func TestUnknownEverywhere(t *testing.T) {
	jc1, _ := twoServerDeployment(t)
	if _, err := jc1.QueryContext(context.Background(), "SELECT * FROM never_published"); err == nil {
		t.Fatal("query for unknown table succeeded")
	}
	// Without RLS configured the error is immediate.
	lone := New(Config{Name: "lone"})
	defer lone.Close()
	if _, err := lone.QueryContext(context.Background(), "SELECT * FROM anything"); err == nil || !strings.Contains(err.Error(), "no RLS") {
		t.Fatalf("err = %v", err)
	}
}

func TestClarensQueryEndToEnd(t *testing.T) {
	_, jc2 := twoServerDeployment(t)
	_ = jc2
	// Reach jc2's tables through its own XML-RPC interface.
	// Find jc2's URL via the RLS by asking jc1's config — simpler: create
	// a fresh client against jc2's clarens URL stored in cfg.
	c := clarens.NewClient(jc2.cfg.URL)
	res, err := c.CallDecodeContext(context.Background(), "dataaccess.query", decodeQueryResult, "SELECT event_id, e_tot FROM calib ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	qr := res.(*QueryResult)
	if len(qr.Rows) != 3 || qr.Rows[0][0].Int != 1 {
		t.Fatalf("rows: %v", qr.Rows)
	}
	if qr.Route == "" || qr.Servers != 1 {
		t.Errorf("route %q, servers %d: route missing from response", qr.Route, qr.Servers)
	}
	// tables + schema methods
	res, err = c.CallContext(context.Background(), "dataaccess.tables")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.([]interface{})) != 2 {
		t.Errorf("tables: %v", res)
	}
	res, err = c.CallContext(context.Background(), "dataaccess.schema", "calib")
	if err != nil {
		t.Fatal(err)
	}
	sm := res.(map[string]interface{})
	if sm["replicas"].(int64) != 1 || len(sm["columns"].([]interface{})) != 3 {
		t.Errorf("schema: %v", sm)
	}
	if _, err := c.CallContext(context.Background(), "dataaccess.schema", "nosuch"); err == nil {
		t.Error("schema of unknown table succeeded")
	}
}

func TestPlugInDatabase(t *testing.T) {
	jc1, _ := twoServerDeployment(t)

	lap := sqlengine.NewEngine("laptopdb", sqlengine.DialectSQLite)
	if err := lap.ExecScript("CREATE TABLE conditions (run INTEGER, temp REAL); INSERT INTO conditions VALUES (100, 21.5)"); err != nil {
		t.Fatal(err)
	}
	sqldriver.RegisterEngine(lap)
	t.Cleanup(func() { sqldriver.UnregisterEngine("laptopdb") })

	spec, err := xspec.Generate("laptopdb", "sqlite", lap)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(t.TempDir(), "laptopdb.xspec")
	if err := xspec.WriteFile(specPath, data); err != nil {
		t.Fatal(err)
	}

	// Plug in over XML-RPC, the paper's §4.10 flow.
	c := clarens.NewClient(jc1.cfg.URL)
	res, err := c.CallContext(context.Background(), "dataaccess.addDatabase", "file://"+specPath, "gridsql-sqlite", "local://laptopdb")
	if err != nil {
		t.Fatal(err)
	}
	if res.(string) != "laptopdb" {
		t.Fatalf("plug-in returned %v", res)
	}
	qr, err := jc1.QueryContext(context.Background(), "SELECT temp FROM conditions WHERE run = 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 {
		t.Fatalf("rows: %v", qr.Rows)
	}
	// Remove over XML-RPC.
	if _, err := c.CallContext(context.Background(), "dataaccess.removeDatabase", "laptopdb"); err != nil {
		t.Fatal(err)
	}
	if _, err := jc1.QueryContext(context.Background(), "SELECT temp FROM conditions"); err == nil {
		t.Error("removed database still answers locally")
	}
}

func TestSchemaTracker(t *testing.T) {
	s := New(Config{Name: "jc1"})
	defer s.Close()
	mart, spec := mkMart(t, "tracked", sqlengine.DialectMySQL, "events", 3)
	addMart(t, s, "tracked", spec, "gridsql-mysql")

	tr := NewTracker(s, 0)
	// First check establishes the baseline.
	updated, err := tr.CheckNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(updated) != 0 {
		t.Fatalf("baseline check updated %v", updated)
	}
	// No change: second check is a no-op.
	updated, err = tr.CheckNow(context.Background())
	if err != nil || len(updated) != 0 {
		t.Fatalf("no-change check: %v %v", updated, err)
	}
	// Schema change on the live mart: new table appears.
	if _, err := mart.Exec("CREATE TABLE `extras` (`k` BIGINT, `v` VARCHAR(8))"); err != nil {
		t.Fatal(err)
	}
	updated, err = tr.CheckNow(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(updated) != 1 || updated[0] != "tracked" {
		t.Fatalf("updated = %v", updated)
	}
	// The service must now answer queries against the new table.
	if _, err := s.QueryContext(context.Background(), "SELECT k FROM extras"); err != nil {
		t.Fatalf("new table not visible after reload: %v", err)
	}
	checks, ups := tr.Stats()
	if checks != 3 || ups != 1 {
		t.Errorf("tracker stats: checks=%d updates=%d", checks, ups)
	}
}

// TestEncodeDecodeResult: the server's cell-direct encoding of a result
// decodes back through the streaming decoder; a payload that is no
// result does not.
func TestEncodeDecodeResult(t *testing.T) {
	rs := &sqlengine.ResultSet{
		Columns: []string{"a", "b", "c"},
		Rows: []sqlengine.Row{
			{sqlengine.NewInt(1), sqlengine.NewFloat(2.5), sqlengine.NewString("x")},
			{sqlengine.Null(), sqlengine.NewBool(true), sqlengine.NewBytes([]byte{9})},
		},
	}
	doc, err := clarens.MarshalResponse(WireResult(rs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := clarens.DecodeResponse(bytes.NewReader(doc), decodeResult)
	if err != nil {
		t.Fatal(err)
	}
	back := res.(*sqlengine.ResultSet)
	if len(back.Rows) != 2 || back.Columns[2] != "c" {
		t.Fatalf("round trip: %+v", back)
	}
	if !back.Rows[1][0].IsNull() || !back.Rows[1][1].Bool() {
		t.Fatalf("values: %v", back.Rows[1])
	}
	if _, err := decodeValue("<string>garbage</string>", decodeResult); err == nil {
		t.Error("garbage decoded")
	}
}
