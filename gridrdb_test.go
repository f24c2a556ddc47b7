package gridrdb

import (
	"context"
	"strings"
	"testing"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/warehouse"
)

// buildGrid assembles the paper's two-server topology: jc1 hosts a MySQL
// mart with events, jc2 hosts an MS-SQL mart with run metadata.
func buildGrid(t *testing.T) (*Grid, *Server, *Server) {
	t.Helper()
	g := NewGrid()
	if _, err := g.StartRLS(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	jc1, err := g.AddServer(ServerConfig{Name: "jc1", Open: true})
	if err != nil {
		t.Fatal(err)
	}
	jc2, err := g.AddServer(ServerConfig{Name: "jc2", Open: true})
	if err != nil {
		t.Fatal(err)
	}

	evs := NewEngine("g_events", MySQL)
	t.Cleanup(func() { sqldriver.UnregisterEngine("g_events") })
	if err := evs.ExecScript(
		"CREATE TABLE `events` (`event_id` BIGINT PRIMARY KEY, `run` BIGINT, `e_tot` DOUBLE);" +
			"INSERT INTO `events` VALUES (1,100,5.0),(2,100,6.0),(3,101,7.0)"); err != nil {
		t.Fatal(err)
	}
	if err := jc1.AddMart(evs); err != nil {
		t.Fatal(err)
	}

	runs := NewEngine("g_runs", MSSQL)
	t.Cleanup(func() { sqldriver.UnregisterEngine("g_runs") })
	if err := runs.ExecScript(
		"CREATE TABLE [runsinfo] ([run] BIGINT PRIMARY KEY, [detector] NVARCHAR(16));" +
			"INSERT INTO [runsinfo] VALUES (100,'CMS'),(101,'ATLAS')"); err != nil {
		t.Fatal(err)
	}
	if err := jc2.AddMart(runs); err != nil {
		t.Fatal(err)
	}
	return g, jc1, jc2
}

func TestGridLocalQuery(t *testing.T) {
	_, jc1, _ := buildGrid(t)
	qr, err := jc1.Query("SELECT event_id FROM events WHERE run = ?", Int(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows: %v", qr.Rows)
	}
}

func TestGridCrossServerQuery(t *testing.T) {
	_, jc1, _ := buildGrid(t)
	// events lives on jc1, runsinfo on jc2: the query must traverse the
	// RLS and both servers.
	qr, err := jc1.Query("SELECT e.event_id, r.detector FROM events e JOIN runsinfo r ON e.run = r.run ORDER BY e.event_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 3 || qr.Servers != 2 {
		t.Fatalf("rows=%d servers=%d", len(qr.Rows), qr.Servers)
	}
	if qr.Rows[2][1].Str() != "ATLAS" {
		t.Fatalf("join content: %v", qr.Rows)
	}
}

// decodeQueryResult and decodeChunk read a dataaccess.query result and a
// system.cursor.fetch chunk straight off the wire, as gridql does.
func decodeQueryResult(d *clarens.Decoder) (interface{}, error) {
	return dataaccess.DecodeQueryResultFrom(d)
}

func decodeChunk(d *clarens.Decoder) (interface{}, error) { return dataaccess.DecodeChunkFrom(d) }

func TestGridXMLRPCClient(t *testing.T) {
	_, _, jc2 := buildGrid(t)
	c := jc2.Client()
	res, err := c.CallDecodeContext(context.Background(), "dataaccess.query", decodeQueryResult, "SELECT detector FROM runsinfo ORDER BY run")
	if err != nil {
		t.Fatal(err)
	}
	qr := res.(*dataaccess.QueryResult)
	if len(qr.Rows) != 2 || qr.Rows[0][0].Str() != "CMS" {
		t.Fatalf("rows: %v", qr.Rows)
	}
	if qr.Route == "" || qr.Servers < 1 {
		t.Fatalf("route %q, servers %d", qr.Route, qr.Servers)
	}
}

func TestGridAuthClosedServer(t *testing.T) {
	g := NewGrid()
	t.Cleanup(func() { g.Close() })
	// A closed server without users is a config error.
	if _, err := g.AddServer(ServerConfig{Name: "bad", Open: false}); err == nil {
		t.Fatal("closed server without users accepted")
	}
	srv, err := g.AddServer(ServerConfig{Name: "sec", Open: false, Users: map[string]string{"u": "p"}})
	if err != nil {
		t.Fatal(err)
	}
	c := srv.Client()
	if _, err := c.CallContext(context.Background(), "dataaccess.tables"); err == nil {
		t.Fatal("unauthenticated call accepted")
	}
	if err := c.LoginContext(context.Background(), "u", "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallContext(context.Background(), "dataaccess.tables"); err != nil {
		t.Fatal(err)
	}
}

func TestFormatResultFacade(t *testing.T) {
	_, jc1, _ := buildGrid(t)
	qr, err := jc1.Query("SELECT event_id, e_tot FROM events ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(qr.ResultSet)
	if !strings.Contains(out, "event_id") || !strings.Contains(out, "5") {
		t.Errorf("format:\n%s", out)
	}
}

func TestGridIdempotentRLS(t *testing.T) {
	g := NewGrid()
	t.Cleanup(func() { g.Close() })
	u1, err := g.StartRLS("")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := g.StartRLS("")
	if err != nil || u1 != u2 {
		t.Fatalf("second StartRLS: %q vs %q (%v)", u1, u2, err)
	}
	if g.RLSURL() != u1 {
		t.Error("RLSURL mismatch")
	}
}

// TestWireETLEvictsOnMaterialize proves the in-process ETL-to-cache
// wiring at the facade: a Stage-2 re-materialization of a mart table
// evicts the cached queries that read it, and only those.
func TestWireETLEvictsOnMaterialize(t *testing.T) {
	g := NewGrid()
	t.Cleanup(func() { g.Close() })
	jc, err := g.AddServer(ServerConfig{Name: "jc-etl", Open: true, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}

	// A warehouse with one run view, and a mart it materializes into.
	cfg := ntuple.Config{Name: "wnt", NVar: 2, NEvents: 30, Runs: 1, Seed: 7}
	src := NewEngine("w_src", MySQL)
	t.Cleanup(func() { sqldriver.UnregisterEngine("w_src") })
	if _, err := ntuple.NewGenerator(cfg).PopulateNormalized(src); err != nil {
		t.Fatal(err)
	}
	wh := NewEngine("w_wh", Oracle)
	t.Cleanup(func() { sqldriver.UnregisterEngine("w_wh") })
	if err := warehouse.InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
		t.Fatal(err)
	}
	etl := warehouse.NewETL()
	if _, err := etl.RunStage1(src, cfg, wh, wh.Dialect()); err != nil {
		t.Fatal(err)
	}
	views := warehouse.RunViews(cfg, wh.Dialect())
	if err := warehouse.CreateViews(wh, views); err != nil {
		t.Fatal(err)
	}
	mart := NewEngine("w_mart", MySQL)
	t.Cleanup(func() { sqldriver.UnregisterEngine("w_mart") })
	if _, err := etl.Materialize(wh, views[0].Name, cfg, mart, mart.Dialect(), "nt_cached"); err != nil {
		t.Fatal(err)
	}
	if err := jc.AddMart(mart); err != nil {
		t.Fatal(err)
	}
	jc.WireETL(etl, "w_mart")

	if _, err := jc.Query("SELECT event_id FROM nt_cached ORDER BY event_id"); err != nil {
		t.Fatal(err)
	}
	if st := jc.Service.CacheStats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}

	// Stage-2 refresh (truncate + reload): the hook must evict the
	// dependent entry.
	if _, err := mart.Exec("DELETE FROM `nt_cached`"); err != nil {
		t.Fatal(err)
	}
	if _, err := etl.Materialize(wh, views[0].Name, cfg, mart, mart.Dialect(), "nt_cached"); err != nil {
		t.Fatal(err)
	}
	st := jc.Service.CacheStats()
	if st.Invalidations == 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want the nt_cached entry evicted", st)
	}
}

// TestGridQueryStream: the public streaming API delivers the same rows as
// Query, honors ctx cancellation, and ForEach closes the stream.
func TestGridQueryStream(t *testing.T) {
	_, jc1, _ := buildGrid(t)
	qr, err := jc1.Query("SELECT event_id, e_tot FROM events ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := jc1.QueryStream(context.Background(), "SELECT event_id, e_tot FROM events ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	if err := sr.ForEach(func(row Row) error {
		ids = append(ids, row[0].Int)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(qr.Rows) {
		t.Fatalf("streamed %d rows, query returned %d", len(ids), len(qr.Rows))
	}
	for i, r := range qr.Rows {
		if ids[i] != r[0].Int {
			t.Fatalf("row %d: stream %d != query %d", i, ids[i], r[0].Int)
		}
	}

	// A dead context is refused up front.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sr, err = jc1.QueryStream(ctx, "SELECT event_id FROM events")
	if err == nil {
		sr.Close()
		// Producers may surface the dead context on first Next instead.
		if _, nerr := sr.Next(); nerr == nil {
			t.Fatal("dead-context stream produced rows")
		}
	}
}

// TestGridCursorMethods exercises the cursor protocol through the public
// server surface (client -> XML-RPC -> cursor registry).
func TestGridCursorMethods(t *testing.T) {
	_, jc1, _ := buildGrid(t)
	c := jc1.Client()
	res, err := c.CallContext(context.Background(), "system.cursor.open", "SELECT event_id FROM events ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	m := res.(map[string]interface{})
	id := m["cursor"].(string)
	res, err = c.CallDecodeContext(context.Background(), "system.cursor.fetch", decodeChunk, id, int64(2))
	if err != nil {
		t.Fatal(err)
	}
	chunk := res.(*dataaccess.Chunk)
	if len(chunk.Rows) != 2 || chunk.Done {
		t.Fatalf("chunk = %+v", chunk)
	}
	if closed, err := c.CallContext(context.Background(), "system.cursor.close", id); err != nil || closed != true {
		t.Fatalf("close = %v %v", closed, err)
	}
}
