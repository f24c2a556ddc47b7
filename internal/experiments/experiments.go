// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment returns structured rows that
// cmd/benchrepro prints in the paper's format and bench_test.go wraps in
// testing.B benchmarks. Absolute times differ from the 2005 testbed (two
// Pentium-IV machines on 100 Mbps Ethernet); the netsim latency profiles
// restore the relative costs so the paper's shapes hold: see EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/netsim"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/rls"
	_ "gridrdb/internal/sqldriver" // registers the gridsql-* database/sql drivers the deployment's DSNs name
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/warehouse"
	"gridrdb/internal/wire"
	"gridrdb/internal/xspec"
)

// ---- Stage 1 & 2: Figures 4 and 5 ----

// StageRow is one measured point of Figure 4 or 5.
type StageRow struct {
	SizeKB     float64
	ExtractSec float64
	LoadSec    float64
	Rows       int64
}

// Fig4Sizes are event counts chosen so staging-file sizes roughly span the
// paper's x-axis (0.397 kB ... 207.866 kB).
var Fig4Sizes = []int{4, 50, 85, 100, 130, 700, 1170, 2150}

// RunFig4 measures Stage 1 (normalized sources -> warehouse): data is
// extracted from an Oracle@Tier-1 and a MySQL@Tier-2 source into a staging
// file, then loaded into the Oracle warehouse. One row per dataset size.
func RunFig4(eventCounts []int, profile *netsim.Profile) ([]StageRow, error) {
	var out []StageRow
	for i, nev := range eventCounts {
		cfg := ntuple.Config{Name: fmt.Sprintf("f4n%d", i), NVar: 8, NEvents: nev, Runs: 4, Seed: int64(nev)}
		src := sqlengine.NewEngine(fmt.Sprintf("f4src%d", i), sqlengine.DialectMySQL)
		if _, err := ntuple.NewGenerator(cfg).PopulateNormalized(src); err != nil {
			return nil, err
		}
		wh := sqlengine.NewEngine(fmt.Sprintf("f4wh%d", i), sqlengine.DialectOracle)
		if err := warehouse.InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
			return nil, err
		}
		etl := warehouse.NewETL()
		etl.Profile = profile
		res, err := etl.RunStage1(src, cfg, wh, wh.Dialect())
		if err != nil {
			return nil, err
		}
		out = append(out, StageRow{
			SizeKB:     float64(res.Bytes) / 1000,
			ExtractSec: res.ExtractTime.Seconds(),
			LoadSec:    res.LoadTime.Seconds(),
			Rows:       res.Rows,
		})
	}
	return out, nil
}

// Fig5Sizes are event counts spanning the smaller Stage-2 x-axis (≤ ~70 kB).
var Fig5Sizes = []int{4, 40, 90, 180, 350, 730}

// RunFig5 measures Stage 2 (warehouse views -> data marts): a run view is
// created over the warehouse fact table and materialized into a MySQL data
// mart through the staging file.
func RunFig5(eventCounts []int, profile *netsim.Profile) ([]StageRow, error) {
	var out []StageRow
	for i, nev := range eventCounts {
		cfg := ntuple.Config{Name: fmt.Sprintf("f5n%d", i), NVar: 8, NEvents: nev, Runs: 1, Seed: int64(nev)}
		src := sqlengine.NewEngine(fmt.Sprintf("f5src%d", i), sqlengine.DialectMySQL)
		if _, err := ntuple.NewGenerator(cfg).PopulateNormalized(src); err != nil {
			return nil, err
		}
		wh := sqlengine.NewEngine(fmt.Sprintf("f5wh%d", i), sqlengine.DialectOracle)
		if err := warehouse.InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
			return nil, err
		}
		etl := warehouse.NewETL()
		if _, err := etl.RunStage1(src, cfg, wh, wh.Dialect()); err != nil {
			return nil, err
		}
		views := warehouse.RunViews(cfg, wh.Dialect())
		if err := warehouse.CreateViews(wh, views); err != nil {
			return nil, err
		}
		mart := sqlengine.NewEngine(fmt.Sprintf("f5mart%d", i), sqlengine.DialectMySQL)
		metl := warehouse.NewETL()
		metl.Profile = profile
		res, err := metl.Materialize(wh, views[0].Name, cfg, mart, mart.Dialect(), "nt_local")
		if err != nil {
			return nil, err
		}
		out = append(out, StageRow{
			SizeKB:     float64(res.Bytes) / 1000,
			ExtractSec: res.ExtractTime.Seconds(),
			LoadSec:    res.LoadTime.Seconds(),
			Rows:       res.Rows,
		})
	}
	return out, nil
}

// ---- Stage 3: Table 1 and Figure 6 ----

// Deployment is the paper's Stage-3 testbed: two Clarens servers hosting
// six databases (split between MS-SQL and MySQL vendors) with ~80,000 rows
// and ~1,700 tables total, wired through one RLS catalog, reached over the
// simulated 100 Mbps LAN.
type Deployment struct {
	RLS     *rls.Server
	Wire    []*wire.Server
	Serv1   *dataaccess.Service
	Serv2   *dataaccess.Service
	Front1  *clarens.Server
	Front2  *clarens.Server
	URL1    string
	URL2    string
	Profile *netsim.Profile
	cleanup []func()
}

// Client returns an XML-RPC client for server 1 with the deployment's
// network profile applied (the measurement point of §5.2).
func (d *Deployment) Client() *clarens.Client {
	c := clarens.NewClient(d.URL1)
	c.Profile = d.Profile
	return c
}

// Close tears everything down.
func (d *Deployment) Close() {
	for i := len(d.cleanup) - 1; i >= 0; i-- {
		d.cleanup[i]()
	}
}

// DeployOptions scales the Stage-3 testbed.
type DeployOptions struct {
	// RowsPerTable is the population of each of the six main data tables
	// (~13,300 gives the paper's ~80,000 total).
	RowsPerTable int
	// FillerTablesPerDB pads the catalogs toward the paper's 1,700 tables
	// (283 per database ≈ 1,700 total).
	FillerTablesPerDB int
	// Profile is the simulated link (netsim.LAN100 for paper conditions).
	Profile *netsim.Profile
	// SessionPooling re-creates 2005-era per-query connections on the
	// Unity path when true (the paper's measured behaviour).
	SessionPooling bool
	// CacheSize enables the per-server query-result cache (entries).
	CacheSize int
}

// SmallDeploy returns options sized for unit tests and quick benchmarks.
func SmallDeploy() DeployOptions {
	return DeployOptions{RowsPerTable: 300, FillerTablesPerDB: 3, Profile: netsim.Local}
}

// PaperDeploy returns options matching §5.2's testbed dimensions.
func PaperDeploy() DeployOptions {
	return DeployOptions{RowsPerTable: 13300, FillerTablesPerDB: 283, Profile: netsim.LAN100, SessionPooling: true}
}

// table names hosted per server: serv1 gets ev1..ev3 (databases d1..d3),
// serv2 gets ev4..ev6 (databases d4..d6).

// Deploy builds the Stage-3 testbed.
func Deploy(opt DeployOptions) (*Deployment, error) {
	d := &Deployment{Profile: opt.Profile}
	fail := func(err error) (*Deployment, error) {
		d.Close()
		return nil, err
	}

	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.RLS = catalog
	d.cleanup = append(d.cleanup, func() { catalog.Close() })

	// Six databases over two wire servers (one per Clarens host machine),
	// alternating MySQL / MS-SQL vendors as in the paper.
	ws1 := wire.NewServer(nil)
	ws2 := wire.NewServer(nil)
	addr1, err := ws1.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.cleanup = append(d.cleanup, func() { ws1.Close() })
	addr2, err := ws2.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.cleanup = append(d.cleanup, func() { ws2.Close() })
	d.Wire = []*wire.Server{ws1, ws2}

	mkService := func(name string) (*dataaccess.Service, *clarens.Server, string, error) {
		rc := rls.NewClient(rlsURL)
		rc.Profile = opt.Profile
		svc := dataaccess.New(dataaccess.Config{
			Name: name, RLS: rc, Profile: opt.Profile,
			CacheSize: opt.CacheSize,
		})
		front := clarens.NewServer(true)
		svc.RegisterMethods(front)
		url, err := front.Start("127.0.0.1:0")
		if err != nil {
			return nil, nil, "", err
		}
		svc.SetURL(url)
		return svc, front, url, nil
	}
	d.Serv1, d.Front1, d.URL1, err = mkService("jclarens-1")
	if err != nil {
		return fail(err)
	}
	d.cleanup = append(d.cleanup, func() { d.Front1.Close(); d.Serv1.Close() })
	d.Serv2, d.Front2, d.URL2, err = mkService("jclarens-2")
	if err != nil {
		return fail(err)
	}
	d.cleanup = append(d.cleanup, func() { d.Front2.Close(); d.Serv2.Close() })

	pool := ""
	if opt.SessionPooling {
		pool = "&pooling=session"
	}
	profileParam := "?profile=" + opt.Profile.Name

	for i := 1; i <= 6; i++ {
		dialect := sqlengine.DialectMySQL
		if i%2 == 0 {
			dialect = sqlengine.DialectMSSQL
		}
		dbName := fmt.Sprintf("d%d", i)
		eng := sqlengine.NewEngine(dbName, dialect)
		if err := populateStage3DB(eng, i, opt); err != nil {
			return fail(err)
		}
		ws, addr := ws1, addr1
		svc := d.Serv1
		if i > 3 {
			ws, addr = ws2, addr2
			svc = d.Serv2
		}
		ws.AddEngine(eng)
		spec, err := xspec.Generate(dbName, dialect.Name, eng)
		if err != nil {
			return fail(err)
		}
		ref := xspec.SourceRef{
			Name:   dbName,
			URL:    "tcp://" + addr + "/" + dbName + profileParam + pool,
			Driver: dialect.DriverName,
			XSpec:  dbName + ".xspec",
		}
		if err := svc.AddDatabase(ref, spec, "", ""); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

// populateStage3DB fills database i with its main event table (ev<i>), a
// run-metadata table (meta<i>), and filler tables.
func populateStage3DB(e *sqlengine.Engine, i int, opt DeployOptions) error {
	d := e.Dialect()
	q := d.QuoteIdent
	intT := "BIGINT"
	if d == sqlengine.DialectOracle {
		intT = "NUMBER"
	}
	ev := fmt.Sprintf("ev%d", i)
	meta := fmt.Sprintf("meta%d", i)
	if _, err := e.Exec(fmt.Sprintf("CREATE TABLE %s (%s %s PRIMARY KEY, %s %s, %s DOUBLE)",
		q(ev), q("event_id"), intT, q("run"), intT, q("e_tot"))); err != nil {
		return err
	}
	rows := make([]sqlengine.Row, opt.RowsPerTable)
	for r := 0; r < opt.RowsPerTable; r++ {
		rows[r] = sqlengine.Row{
			sqlengine.NewInt(int64(r + 1)),
			sqlengine.NewInt(int64(100 + r%5)),
			sqlengine.NewFloat(float64(r%1000) / 7.0),
		}
	}
	if _, err := e.InsertRows(ev, rows); err != nil {
		return err
	}
	if _, err := e.Exec(fmt.Sprintf("CREATE TABLE %s (%s %s PRIMARY KEY, %s VARCHAR(16))",
		q(meta), q("run"), intT, q("detector"))); err != nil {
		return err
	}
	for r := 0; r < 5; r++ {
		det := "CMS"
		if r%2 == 1 {
			det = "ATLAS"
		}
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, '%s')", q(meta), 100+r, det)); err != nil {
			return err
		}
	}
	for f := 0; f < opt.FillerTablesPerDB; f++ {
		name := fmt.Sprintf("fill%d_%d", i, f)
		if _, err := e.Exec(fmt.Sprintf("CREATE TABLE %s (%s %s, %s VARCHAR(32))",
			q(name), q("k"), intT, q("v"))); err != nil {
			return err
		}
	}
	return nil
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Servers     int
	Distributed bool
	ResponseMS  float64
	Tables      int
}

// Table1Queries returns the three query shapes of Table 1, measured from a
// client of server 1:
//
//	q1: 1 server, not distributed, 1 table   (local, single database)
//	q2: 1 server, distributed, 2 tables      (join across two local DBs)
//	q3: 2 servers, distributed, 4 tables     (join spanning both servers)
func Table1Queries() []string {
	return []string{
		"SELECT event_id, e_tot FROM ev1 WHERE run = 102 AND event_id < 120",
		"SELECT e.event_id, m.detector FROM ev1 e JOIN meta2 m ON e.run = m.run WHERE m.detector = 'CMS' AND e.event_id < 2500",
		"SELECT e.event_id, m.detector, f.e_tot, n.detector AS det2 FROM ev1 e JOIN meta2 m ON e.run = m.run JOIN ev4 f ON f.event_id = e.event_id JOIN meta5 n ON n.run = f.run WHERE m.detector = 'CMS' AND e.event_id < 2500 AND f.event_id < 2500",
	}
}

// RunTable1 measures the three queries through the XML-RPC interface:
// the median of repeats timed calls after one warm-up call each (the
// paper averaged observations taken at different times; the median keeps
// one call stalled by a busy host from reordering the rows).
func RunTable1(d *Deployment, repeats int) ([]Table1Row, error) {
	if repeats <= 0 {
		repeats = 3
	}
	client := d.Client()
	rows := []Table1Row{
		{Servers: 1, Distributed: false, Tables: 1},
		{Servers: 1, Distributed: true, Tables: 2},
		{Servers: 2, Distributed: true, Tables: 4},
	}
	queries := Table1Queries()
	// The cold first call pays one-time costs (connections, plans) that
	// are not the query's response time. The timed calls interleave the
	// queries, so a burst of load on the host slows all three alike.
	took := make([][]time.Duration, len(queries))
	for r := -1; r < repeats; r++ {
		for qi, q := range queries {
			start := time.Now()
			if _, err := client.Call("dataaccess.query", q); err != nil {
				return nil, fmt.Errorf("table1 q%d: %w", qi+1, err)
			}
			if r >= 0 {
				took[qi] = append(took[qi], time.Since(start))
			}
		}
	}
	for qi := range queries {
		rows[qi].ResponseMS = medianMS(took[qi])
	}
	return rows, nil
}

// Fig6Row is one point of Figure 6.
type Fig6Row struct {
	RowsRequested int
	ResponseMS    float64
}

// Fig6RowCounts mirrors the paper's x-axis (21 ... 2551 rows).
var Fig6RowCounts = []int{21, 51, 301, 451, 700, 801, 901, 1701, 1751, 2251, 2451, 2551}

// RunFig6 measures response time (the median of repeats calls) versus the
// number of rows requested, using the distributed two-table query shape
// with a LIMIT sweep.
func RunFig6(d *Deployment, rowCounts []int, repeats int) ([]Fig6Row, error) {
	if repeats <= 0 {
		repeats = 3
	}
	client := d.Client()
	var out []Fig6Row
	for _, n := range rowCounts {
		q := fmt.Sprintf("SELECT event_id, run, e_tot FROM ev1 LIMIT %d", n)
		var took []time.Duration
		var got int
		for r := 0; r < repeats; r++ {
			start := time.Now()
			res, err := client.CallDecodeContext(context.Background(), "dataaccess.query", decodeQueryResult, q)
			if err != nil {
				return nil, fmt.Errorf("fig6 rows=%d: %w", n, err)
			}
			took = append(took, time.Since(start))
			qr, ok := res.(*dataaccess.QueryResult)
			if !ok {
				return nil, fmt.Errorf("fig6 rows=%d: empty response", n)
			}
			got = len(qr.Rows)
		}
		if got == 0 {
			return nil, fmt.Errorf("fig6 rows=%d returned nothing", n)
		}
		out = append(out, Fig6Row{RowsRequested: n, ResponseMS: medianMS(took)})
	}
	return out, nil
}

// decodeQueryResult reads a dataaccess.query response straight off the
// wire into engine rows.
func decodeQueryResult(d *clarens.Decoder) (interface{}, error) {
	return dataaccess.DecodeQueryResultFrom(d)
}

// medianMS is the median of the durations, in fractional milliseconds.
func medianMS(took []time.Duration) float64 {
	sorted := slices.Clone(took)
	slices.Sort(sorted)
	m := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		m = (sorted[len(sorted)/2-1] + m) / 2
	}
	return float64(m) / float64(time.Millisecond)
}
