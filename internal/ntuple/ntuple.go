// Package ntuple models the paper's HBOOK Ntuple workload (§4.1). An
// Ntuple is "like a table where [NVAR] variables are the columns and each
// event is a row": 10000 events with, say, NVAR=200 variables. The source
// databases store this data in a *normalized* schema (events and values in
// tall/thin tables); the warehouse stores it *denormalized* as a wide star
// schema fact table. This package generates deterministic synthetic
// Ntuples (the substitution for the CERN HBOOK datasets, which are not
// redistributable), emits the DDL for both schemas in any vendor dialect,
// and populates source databases.
package ntuple

import (
	"fmt"
	"math"
	"math/rand"

	"gridrdb/internal/sqlengine"
)

// Config describes one synthetic Ntuple dataset.
type Config struct {
	// Name is the ntuple name; it becomes part of table names.
	Name string
	// NVar is the number of variables per event (columns of the ntuple).
	NVar int
	// NEvents is the number of events (rows).
	NEvents int
	// Runs is the number of detector runs events are spread over.
	Runs int
	// Seed makes generation deterministic.
	Seed int64
}

// Generator produces events for a Config.
type Generator struct {
	cfg Config
	rng *rand.Rand
}

// NewGenerator returns a deterministic generator for cfg.
func NewGenerator(cfg Config) *Generator {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Event is one generated event: an id, its run, and NVar variable values.
type Event struct {
	ID     int64
	Run    int64
	Values []float64
}

// Events generates the full event list deterministically.
func (g *Generator) Events() []Event {
	out := make([]Event, g.cfg.NEvents)
	for i := range out {
		ev := Event{
			ID:     int64(i + 1),
			Run:    int64(100 + g.rng.Intn(g.cfg.Runs)),
			Values: make([]float64, g.cfg.NVar),
		}
		for v := range ev.Values {
			// Physics-flavoured mixture: mostly gaussian "calorimeter"
			// values with occasional exponential tails.
			if g.rng.Float64() < 0.1 {
				ev.Values[v] = g.rng.ExpFloat64() * 50
			} else {
				ev.Values[v] = math.Abs(g.rng.NormFloat64()*10 + 50)
			}
		}
		out[i] = ev
	}
	return out
}

// VarName returns the column name of variable i ("v0", "v1", ...).
func VarName(i int) string { return fmt.Sprintf("v%d", i) }

// ---- normalized source schema ----

// Normalized table names for an ntuple called name.
func metaTable(name string) string   { return name + "_meta" }
func varsTable(name string) string   { return name + "_vars" }
func eventsTable(name string) string { return name + "_events" }
func valuesTable(name string) string { return name + "_values" }

// EventsTableName exposes the normalized events table name.
func EventsTableName(name string) string { return eventsTable(name) }

// ValuesTableName exposes the normalized values table name.
func ValuesTableName(name string) string { return valuesTable(name) }

// NormalizedDDL returns the CREATE TABLE statements for the normalized
// source-database schema in dialect d: ntuple metadata, the variable
// dictionary, events, and the tall values table keyed by
// (event_id, var_idx).
func NormalizedDDL(cfg Config, d *sqlengine.Dialect) []string {
	intT := sqlengine.ColumnType{Kind: sqlengine.KindInt}
	strT := sqlengine.ColumnType{Kind: sqlengine.KindString, Size: 64}
	fltT := sqlengine.ColumnType{Kind: sqlengine.KindFloat}
	return []string{
		d.CreateTableSQL(metaTable(cfg.Name), []sqlengine.ColumnDef{
			{Name: "ntuple_id", Type: intT, PrimaryKey: true, NotNull: true},
			{Name: "name", Type: strT, NotNull: true},
			{Name: "nvar", Type: intT, NotNull: true},
			{Name: "nevents", Type: intT, NotNull: true},
		}, nil),
		d.CreateTableSQL(varsTable(cfg.Name), []sqlengine.ColumnDef{
			{Name: "var_idx", Type: intT, PrimaryKey: true, NotNull: true},
			{Name: "var_name", Type: strT, NotNull: true},
			{Name: "units", Type: strT},
		}, nil),
		d.CreateTableSQL(eventsTable(cfg.Name), []sqlengine.ColumnDef{
			{Name: "event_id", Type: intT, PrimaryKey: true, NotNull: true},
			{Name: "run", Type: intT, NotNull: true},
		}, nil),
		d.CreateTableSQL(valuesTable(cfg.Name), []sqlengine.ColumnDef{
			{Name: "event_id", Type: intT, NotNull: true},
			{Name: "var_idx", Type: intT, NotNull: true},
			{Name: "val", Type: fltT},
		}, nil),
	}
}

// PopulateNormalized creates the normalized schema in e and loads the
// generated events. It returns the number of rows written to the values
// table.
func (g *Generator) PopulateNormalized(e *sqlengine.Engine) (int64, error) {
	for _, ddl := range NormalizedDDL(g.cfg, e.Dialect()) {
		if _, err := e.Exec(ddl); err != nil {
			return 0, fmt.Errorf("ntuple: DDL: %w", err)
		}
	}
	if _, err := e.InsertRows(metaTable(g.cfg.Name), []sqlengine.Row{{
		sqlengine.NewInt(1), sqlengine.NewString(g.cfg.Name),
		sqlengine.NewInt(int64(g.cfg.NVar)), sqlengine.NewInt(int64(g.cfg.NEvents)),
	}}); err != nil {
		return 0, err
	}
	varRows := make([]sqlengine.Row, g.cfg.NVar)
	for i := 0; i < g.cfg.NVar; i++ {
		varRows[i] = sqlengine.Row{
			sqlengine.NewInt(int64(i)), sqlengine.NewString(VarName(i)), sqlengine.NewString("GeV"),
		}
	}
	if _, err := e.InsertRows(varsTable(g.cfg.Name), varRows); err != nil {
		return 0, err
	}
	events := g.Events()
	evRows := make([]sqlengine.Row, len(events))
	var valRows []sqlengine.Row
	for i, ev := range events {
		evRows[i] = sqlengine.Row{sqlengine.NewInt(ev.ID), sqlengine.NewInt(ev.Run)}
		for vi, val := range ev.Values {
			valRows = append(valRows, sqlengine.Row{
				sqlengine.NewInt(ev.ID), sqlengine.NewInt(int64(vi)), sqlengine.NewFloat(val),
			})
		}
	}
	if _, err := e.InsertRows(eventsTable(g.cfg.Name), evRows); err != nil {
		return 0, err
	}
	n, err := e.InsertRows(valuesTable(g.cfg.Name), valRows)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// ---- denormalized star schema (warehouse) ----

// FactTableName is the warehouse fact table for an ntuple.
func FactTableName(name string) string { return "fact_" + name }

// DimRunTableName is the shared run dimension table.
func DimRunTableName() string { return "dim_run" }

// StarDDL returns the warehouse star schema DDL in dialect d: one wide
// fact table (event_id, run, v0..v{NVar-1}) and the run dimension.
func StarDDL(cfg Config, d *sqlengine.Dialect) []string {
	intT := sqlengine.ColumnType{Kind: sqlengine.KindInt}
	strT := sqlengine.ColumnType{Kind: sqlengine.KindString, Size: 32}
	fltT := sqlengine.ColumnType{Kind: sqlengine.KindFloat}
	factCols := []sqlengine.ColumnDef{
		{Name: "event_id", Type: intT, PrimaryKey: true, NotNull: true},
		{Name: "run", Type: intT, NotNull: true},
	}
	for i := 0; i < cfg.NVar; i++ {
		factCols = append(factCols, sqlengine.ColumnDef{Name: VarName(i), Type: fltT})
	}
	return []string{
		d.CreateTableSQL(FactTableName(cfg.Name), factCols, nil),
		d.CreateTableSQL(DimRunTableName(), []sqlengine.ColumnDef{
			{Name: "run", Type: intT, PrimaryKey: true, NotNull: true},
			{Name: "detector", Type: strT},
			{Name: "period", Type: strT},
		}, nil),
	}
}

// StarColumns returns the fact-table column names for cfg in order.
func StarColumns(cfg Config) []string {
	cols := []string{"event_id", "run"}
	for i := 0; i < cfg.NVar; i++ {
		cols = append(cols, VarName(i))
	}
	return cols
}

// RunRows returns the dimension rows covering cfg.Runs runs.
func RunRows(cfg Config) []sqlengine.Row {
	out := make([]sqlengine.Row, cfg.Runs)
	for i := 0; i < cfg.Runs; i++ {
		detector := "CMS"
		if i%2 == 1 {
			detector = "ATLAS"
		}
		out[i] = sqlengine.Row{
			sqlengine.NewInt(int64(100 + i)),
			sqlengine.NewString(detector),
			sqlengine.NewString(fmt.Sprintf("2005-%02d", i%12+1)),
		}
	}
	return out
}
