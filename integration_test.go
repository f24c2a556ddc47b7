package gridrdb

// Integration test of the complete paper pipeline: normalized sources ->
// staged ETL -> star warehouse -> per-run views -> heterogeneous data
// marts -> two JClarens servers + RLS -> federated queries from an XML-RPC
// client -> histogram analysis. This is examples/quickstart +
// examples/analysis-histogram as assertions.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gridrdb/internal/dataaccess"
	"gridrdb/internal/histogram"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/proximity"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/warehouse"
)

func TestFullPaperPipeline(t *testing.T) {
	cfg := ntuple.Config{Name: "it", NVar: 5, NEvents: 300, Runs: 3, Seed: 99}

	// Stage 0: normalized source.
	src := NewEngine("it_source", MySQL)
	t.Cleanup(func() { sqldriver.UnregisterEngine("it_source") })
	valRows, err := ntuple.NewGenerator(cfg).PopulateNormalized(src)
	if err != nil {
		t.Fatal(err)
	}
	if valRows != int64(cfg.NVar*cfg.NEvents) {
		t.Fatalf("normalized values = %d", valRows)
	}

	// Stage 1: ETL to warehouse.
	wh := NewEngine("it_wh", Oracle)
	t.Cleanup(func() { sqldriver.UnregisterEngine("it_wh") })
	if err := warehouse.InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
		t.Fatal(err)
	}
	etl := warehouse.NewETL()
	s1, err := etl.RunStage1(src, cfg, wh, wh.Dialect())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Rows != int64(cfg.NEvents) {
		t.Fatalf("stage1 rows = %d", s1.Rows)
	}
	// Integration invariant: warehouse totals equal source totals.
	whSum, err := wh.Query(`SELECT COUNT(*), SUM("v0") FROM "fact_it"`)
	if err != nil {
		t.Fatal(err)
	}
	srcSum, err := src.Query("SELECT SUM(`val`) FROM `it_values` WHERE `var_idx` = 0")
	if err != nil {
		t.Fatal(err)
	}
	wf, _ := whSum.Rows[0][1].AsFloat()
	sf, _ := srcSum.Rows[0][0].AsFloat()
	if diff := wf - sf; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("warehouse v0 sum %g != source %g", wf, sf)
	}

	// Stage 2: views -> marts of three vendors.
	views := warehouse.RunViews(cfg, wh.Dialect())
	if err := warehouse.CreateViews(wh, views); err != nil {
		t.Fatal(err)
	}
	martDialects := []*Dialect{MySQL, MSSQL, SQLite}
	marts := make([]*Engine, len(views))
	var martTotal int64
	for i, v := range views {
		marts[i] = NewEngine(fmt.Sprintf("it_mart%d", i), martDialects[i%len(martDialects)])
		name := marts[i].Name()
		t.Cleanup(func() { sqldriver.UnregisterEngine(name) })
		res, err := etl.Materialize(wh, v.Name, cfg, marts[i], marts[i].Dialect(), fmt.Sprintf("it_run%d", 100+i))
		if err != nil {
			t.Fatal(err)
		}
		martTotal += res.Rows
	}
	if martTotal != int64(cfg.NEvents) {
		t.Fatalf("marts hold %d rows, want %d (run views partition events)", martTotal, cfg.NEvents)
	}

	// Grid: RLS + two servers, marts split across them.
	grid := NewGrid()
	t.Cleanup(func() { grid.Close() })
	if _, err := grid.StartRLS(""); err != nil {
		t.Fatal(err)
	}
	jc1, err := grid.AddServer(ServerConfig{Name: "it_jc1", Open: true})
	if err != nil {
		t.Fatal(err)
	}
	jc2, err := grid.AddServer(ServerConfig{Name: "it_jc2", Open: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := jc1.AddMart(marts[0]); err != nil {
		t.Fatal(err)
	}
	for _, m := range marts[1:] {
		if err := jc2.AddMart(m); err != nil {
			t.Fatal(err)
		}
	}

	// Local query routes via POOL-RAL (MySQL mart on jc1).
	qr, err := jc1.Query("SELECT event_id, v0 FROM it_run100 WHERE v0 > 0")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != dataaccess.RoutePOOLRAL {
		t.Errorf("local route = %s", qr.Route)
	}

	// Remote query through the RLS.
	qr, err = jc1.Query("SELECT COUNT(*) AS n FROM it_run101")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != dataaccess.RouteRemote || qr.Servers != 2 {
		t.Errorf("remote route = %s servers=%d", qr.Route, qr.Servers)
	}

	// The streamed counterpart of a remote query rides the cursor relay:
	// jc1 opens a cursor on jc2 and pages it, delivering the same rows as
	// the materialized forward — and the relay counters prove the path.
	mat, err := jc1.Query("SELECT event_id, v0 FROM it_run101 ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := jc1.QueryStream(context.Background(), "SELECT event_id, v0 FROM it_run101 ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Route != dataaccess.RouteRemote || sr.Servers != 2 {
		t.Errorf("streamed remote route = %s servers=%d", sr.Route, sr.Servers)
	}
	streamed := 0
	if err := sr.ForEach(func(row Row) error {
		if row[0].Int != mat.Rows[streamed][0].Int {
			return fmt.Errorf("row %d: relayed %d != forwarded %d", streamed, row[0].Int, mat.Rows[streamed][0].Int)
		}
		streamed++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if streamed != len(mat.Rows) {
		t.Fatalf("relayed %d rows, forward returned %d", streamed, len(mat.Rows))
	}
	if st := jc1.Service.CursorStats(); st.RelayOpens == 0 || st.RelayRows < int64(streamed) {
		t.Errorf("relay counters = %+v, want the streamed remote scan relayed", st)
	}

	// Every event is reachable through the federation: the three run
	// tables partition the dataset.
	var total int64
	for i := range views {
		qr, err := jc1.Query(fmt.Sprintf("SELECT COUNT(*) FROM it_run%d", 100+i))
		if err != nil {
			t.Fatal(err)
		}
		total += qr.Rows[0][0].Int
	}
	if total != int64(cfg.NEvents) {
		t.Fatalf("federated total = %d, want %d", total, cfg.NEvents)
	}

	// Analysis: fill a histogram over an XML-RPC union of two runs.
	client := jc1.Client()
	res, err := client.CallDecodeContext(context.Background(), "dataaccess.query", decodeQueryResult,
		"SELECT v0 FROM it_run100 UNION ALL SELECT v0 FROM it_run101")
	if err != nil {
		t.Fatal(err)
	}
	rs := res.(*dataaccess.QueryResult).ResultSet
	h, err := histogram.New("v0", 10, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	n, err := h.FillColumn(rs, "v0")
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != h.Entries() || n == 0 {
		t.Fatalf("filled %d entries", n)
	}
	if h.Mean() <= 0 {
		t.Errorf("mean = %g", h.Mean())
	}

	// Proximity extension: probing steers replica selection without
	// breaking answers.
	prober := proximity.NewProber(jc1.Service.Federation())
	prober.ProbeOnce(context.Background())
	if _, err := jc1.Query("SELECT COUNT(*) FROM it_run100"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentFederatedClients(t *testing.T) {
	_, jc1, _ := buildGrid(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := "SELECT event_id FROM events WHERE run = 100"
				if c%2 == 1 {
					// Half the clients exercise the cross-server path.
					q = "SELECT e.event_id, r.detector FROM events e JOIN runsinfo r ON e.run = r.run"
				}
				if _, err := jc1.Query(q); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := jc1.Service.Stats()
	if st.Queries.Load() != 80 {
		t.Errorf("queries = %d", st.Queries.Load())
	}
}
