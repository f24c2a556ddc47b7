package main

// The deployment under test, identical for all four workloads: the
// paper's pipeline (normalized source -> Stage 1 -> warehouse views ->
// Stage 2 marts) feeding an in-process grid of one RLS and two JClarens
// servers, reached by the load clients over loopback HTTP.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"gridrdb"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/warehouse"
)

// Deployment dimensions. NEvents spread over 4 runs gives ~20 000 rows x
// 8 columns per run table; hotRows is the small refreshed mart table.
const (
	benchNVar    = 6
	benchNEvents = 80000
	benchRuns    = 4
	hotRows      = 2000

	frontCacheSize   = 256
	frontCacheBytes  = 64 << 20
	frontMaxInFlight = 8
)

// Mart table names. tblReplica replicates the run-100 view, so the
// decomposed join has overlapping event ids on two member databases.
const (
	tblRun100  = "ev_run100"
	tblRun101  = "ev_run101"
	tblRun102  = "ev_run102"
	tblReplica = "ev_replica"
	tblHot     = "ev_hot"
	viewHot    = "v_ev_hot"
)

// deployGen makes engine names unique per set-up: engines register in a
// process-wide local:// registry, and the tests set up several times in
// one process.
var deployGen atomic.Int64

// deployment is one built grid plus the handles the workloads, the
// oracle and the traced replay need.
type deployment struct {
	cfg   ntuple.Config
	grid  *gridrdb.Grid
	front *gridrdb.Server
	peer  *gridrdb.Server

	wh      *gridrdb.Engine
	etl     *warehouse.ETL
	martHot *gridrdb.Engine
	// marts maps each mart table to the engine holding it.
	marts map[string]*gridrdb.Engine
	// engines lists every registered engine, for teardown.
	engines []*gridrdb.Engine

	stage1      warehouse.StageResult
	materialize time.Duration // summed Stage-2 transfer time of all marts
}

// buildDeployment runs the whole pipeline for nEvents events generated
// from seed and starts the grid.
func buildDeployment(seed int64, nEvents int) (*deployment, error) {
	gen := deployGen.Add(1)
	d := &deployment{
		cfg:   ntuple.Config{Name: "ev", NVar: benchNVar, NEvents: nEvents, Runs: benchRuns, Seed: seed},
		marts: map[string]*gridrdb.Engine{},
		etl:   warehouse.NewETL(),
	}
	engine := func(name string, dialect *gridrdb.Dialect) *gridrdb.Engine {
		e := gridrdb.NewEngine(fmt.Sprintf("%s_g%d", name, gen), dialect)
		d.engines = append(d.engines, e)
		return e
	}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	// The tier-1 source is only needed until Stage 1 has run, and a grid
	// server does not hold it: it is let go when this function returns, so
	// the servers' garbage collector is not marking the benchmark's own
	// half million scaffolding rows during the window.
	src := gridrdb.NewEngine(fmt.Sprintf("tier1_g%d", gen), gridrdb.Oracle)
	defer sqldriver.UnregisterEngine(src.Name())
	if _, err := ntuple.NewGenerator(d.cfg).PopulateNormalized(src); err != nil {
		return nil, fmt.Errorf("populate source: %w", err)
	}
	d.wh = engine("warehouse", gridrdb.Oracle)
	if err := warehouse.InitWarehouse(d.wh, d.wh.Dialect(), d.cfg); err != nil {
		return nil, err
	}
	var err error
	if d.stage1, err = d.etl.RunStage1(src, d.cfg, d.wh, d.wh.Dialect()); err != nil {
		return nil, fmt.Errorf("stage 1: %w", err)
	}

	views := warehouse.RunViews(d.cfg, d.wh.Dialect())
	views = append(views, hotView(d.cfg, d.wh.Dialect()))
	if err := warehouse.CreateViews(d.wh, views); err != nil {
		return nil, err
	}
	d.martHot = engine("mart_hot", gridrdb.MySQL)
	placements := []struct {
		mart  *gridrdb.Engine
		view  string
		table string
	}{
		{engine("mart_mysql", gridrdb.MySQL), views[0].Name, tblRun100},
		{engine("mart_mssql", gridrdb.MSSQL), views[1].Name, tblRun101},
		{engine("mart_sqlite", gridrdb.SQLite), views[0].Name, tblReplica},
		{d.martHot, viewHot, tblHot},
		{engine("mart_oracle", gridrdb.Oracle), views[2].Name, tblRun102},
	}
	for _, p := range placements {
		res, err := d.etl.Materialize(d.wh, p.view, d.cfg, p.mart, p.mart.Dialect(), p.table)
		if err != nil {
			return nil, fmt.Errorf("materialize %s: %w", p.table, err)
		}
		d.materialize += res.Total()
		d.marts[p.table] = p.mart
	}

	d.grid = gridrdb.NewGrid()
	if _, err := d.grid.StartRLS(""); err != nil {
		return nil, err
	}
	if d.front, err = d.grid.AddServer(gridrdb.ServerConfig{
		Name: "front", Open: true,
		CacheSize: frontCacheSize, CacheMaxBytes: frontCacheBytes, MaxInFlight: frontMaxInFlight,
	}); err != nil {
		return nil, err
	}
	if d.peer, err = d.grid.AddServer(gridrdb.ServerConfig{Name: "peer", Open: true}); err != nil {
		return nil, err
	}
	for _, p := range placements {
		srv := d.front
		if p.table == tblRun102 {
			srv = d.peer
		}
		if err := srv.AddMart(p.mart); err != nil {
			return nil, fmt.Errorf("add mart %s: %w", p.mart.Name(), err)
		}
	}
	// Wired after the initial loads, so only refreshes invalidate.
	d.front.WireETL(d.etl, d.martHot.Name())
	ok = true
	return d, nil
}

// hotView is the warehouse view behind the small refreshed mart table:
// the first hotRows events, whatever their run.
func hotView(cfg ntuple.Config, d *gridrdb.Dialect) warehouse.ViewDef {
	cols := ntuple.StarColumns(cfg)
	for i, c := range cols {
		cols[i] = d.QuoteIdent(c)
	}
	return warehouse.ViewDef{
		Name: viewHot,
		SQL: fmt.Sprintf("SELECT %s FROM %s WHERE %s <= %d", strings.Join(cols, ", "),
			d.QuoteIdent(ntuple.FactTableName(cfg.Name)), d.QuoteIdent("event_id"), hotRows),
	}
}

// refreshHot re-materializes the hot mart table from its warehouse view,
// which invalidates the cached results that read it (Server.WireETL).
func (d *deployment) refreshHot() error {
	if _, err := d.martHot.Exec("DELETE FROM " + d.martHot.Dialect().QuoteIdent(tblHot)); err != nil {
		return err
	}
	_, err := d.etl.Materialize(d.wh, viewHot, d.cfg, d.martHot, d.martHot.Dialect(), tblHot)
	return err
}

// close stops the grid and unregisters the engines.
func (d *deployment) close() {
	if d.grid != nil {
		d.grid.Close()
	}
	for _, e := range d.engines {
		sqldriver.UnregisterEngine(e.Name())
	}
}
