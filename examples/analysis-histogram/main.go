// analysis-histogram reproduces the paper's Java Analysis Studio plug-in
// workflow (§6): an analysis client submits queries for ntuple data
// through the Clarens web-service interface and visualizes the result as
// histograms — here rendered as text, HBOOK style.
//
// Run with: go run ./examples/analysis-histogram
package main

import (
	"context"
	"fmt"
	"log"

	"gridrdb"
	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/histogram"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/warehouse"
)

func main() {
	// Build a small analysis grid: one warehouse-fed mart per server.
	cfg := ntuple.Config{Name: "zmumu", NVar: 4, NEvents: 2000, Runs: 2, Seed: 20050615}
	src := gridrdb.NewEngine("daq_source", gridrdb.MySQL)
	if _, err := ntuple.NewGenerator(cfg).PopulateNormalized(src); err != nil {
		log.Fatal(err)
	}
	wh := gridrdb.NewEngine("warehouse", gridrdb.Oracle)
	if err := warehouse.InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
		log.Fatal(err)
	}
	etl := warehouse.NewETL()
	if _, err := etl.RunStage1(src, cfg, wh, wh.Dialect()); err != nil {
		log.Fatal(err)
	}
	views := warehouse.RunViews(cfg, wh.Dialect())
	if err := warehouse.CreateViews(wh, views); err != nil {
		log.Fatal(err)
	}
	martA := gridrdb.NewEngine("mart_run100", gridrdb.MySQL)
	martB := gridrdb.NewEngine("mart_run101", gridrdb.MSSQL)
	if _, err := etl.Materialize(wh, views[0].Name, cfg, martA, martA.Dialect(), "zmumu_run100"); err != nil {
		log.Fatal(err)
	}
	if _, err := etl.Materialize(wh, views[1].Name, cfg, martB, martB.Dialect(), "zmumu_run101"); err != nil {
		log.Fatal(err)
	}

	grid := gridrdb.NewGrid()
	defer grid.Close()
	if _, err := grid.StartRLS(""); err != nil {
		log.Fatal(err)
	}
	jc1, err := grid.AddServer(gridrdb.ServerConfig{Name: "jc1", Open: true})
	if err != nil {
		log.Fatal(err)
	}
	jc2, err := grid.AddServer(gridrdb.ServerConfig{Name: "jc2", Open: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := jc1.AddMart(martA); err != nil {
		log.Fatal(err)
	}
	if err := jc2.AddMart(martB); err != nil {
		log.Fatal(err)
	}

	// The analysis client talks XML-RPC, like the JAS plug-in did.
	client := jc1.Client()

	fill := func(h *histogram.Hist1D, query, column string) {
		// Rows decode straight off the XML-RPC response into engine values.
		res, err := client.CallDecodeContext(context.Background(), "dataaccess.query",
			func(d *clarens.Decoder) (interface{}, error) { return dataaccess.DecodeQueryResultFrom(d) }, query)
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		qr, ok := res.(*dataaccess.QueryResult)
		if !ok {
			log.Fatal("query: empty response")
		}
		if _, err := h.FillColumn(qr.ResultSet, column); err != nil {
			log.Fatal(err)
		}
	}

	// Histogram 1: the v0 spectrum of run 100 (local to jc1).
	h1, _ := histogram.New("v0 spectrum, run 100 (local mart)", 12, 0, 120)
	fill(h1, "SELECT v0 FROM zmumu_run100", "v0")
	fmt.Println(h1.Render(50))

	// Histogram 2: the same variable for run 101, which lives on the
	// other server — the middleware resolves it via the RLS.
	h2, _ := histogram.New("v0 spectrum, run 101 (remote mart via RLS)", 12, 0, 120)
	fill(h2, "SELECT v0 FROM zmumu_run101", "v0")
	fmt.Println(h2.Render(50))

	// Histogram 3: a derived quantity over a cross-server UNION of both
	// runs, with a cut — one federated SQL statement.
	h3, _ := histogram.New("v1+v2 (both runs, v0 > 40)", 10, 0, 200)
	fill(h3, `SELECT v1 + v2 AS sum12 FROM zmumu_run100 WHERE v0 > 40
	          UNION ALL SELECT v1 + v2 AS sum12 FROM zmumu_run101 WHERE v0 > 40`, "sum12")
	fmt.Println(h3.Render(50))

	fmt.Printf("run 100: %d entries (mean %.2f)  |  run 101: %d entries (mean %.2f)\n",
		h1.Entries(), h1.Mean(), h2.Entries(), h2.Mean())
}
