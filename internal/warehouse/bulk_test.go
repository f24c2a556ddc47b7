package warehouse

// Tests for the typed bulk-load path: LoadStaged and InitWarehouse insert
// through BulkInserter when the target is a local engine, and fall back to
// rendered multi-row INSERTs for wire-style targets that only expose Exec.

import (
	"bytes"
	"testing"

	"gridrdb/internal/ntuple"
	"gridrdb/internal/sqlengine"
)

// countingTarget wraps an engine and counts which load surface is used.
type countingTarget struct {
	e     *sqlengine.Engine
	execs int
	bulks int
}

func (c *countingTarget) Exec(sql string, params ...sqlengine.Value) (int64, error) {
	c.execs++
	return c.e.Exec(sql, params...)
}

func (c *countingTarget) Query(sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	return c.e.Query(sql, params...)
}

func (c *countingTarget) InsertRows(table string, rows []sqlengine.Row) (int64, error) {
	c.bulks++
	return c.e.InsertRows(table, rows)
}

// execOnly hides the engine's bulk surface, modelling a wire target that
// only accepts SQL text.
type execOnly struct{ e *sqlengine.Engine }

func (x execOnly) Exec(sql string, params ...sqlengine.Value) (int64, error) {
	return x.e.Exec(sql, params...)
}

func (x execOnly) Query(sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	return x.e.Query(sql, params...)
}

func stageRows(t *testing.T, rows []sqlengine.Row) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := NewETL().writeStaged(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func makeRows(n int) []sqlengine.Row {
	rows := make([]sqlengine.Row, n)
	for i := range rows {
		rows[i] = sqlengine.Row{
			sqlengine.NewInt(int64(i)),
			sqlengine.NewFloat(float64(i) * 1.5),
		}
	}
	return rows
}

func newLoadTarget(t *testing.T, name string) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine(name, sqlengine.DialectANSI)
	if _, err := e.Exec("CREATE TABLE t (a BIGINT PRIMARY KEY, b DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	return e
}

// The loader takes the typed path for engines — no SQL rendered at all —
// and the Exec path for wire targets, with identical resulting contents.
func TestLoadStagedBulkVsExecIdentical(t *testing.T) {
	const n = 300 // > one 128-row batch, with a partial tail
	rows := makeRows(n)

	bulkEng := newLoadTarget(t, "bulk")
	ct := &countingTarget{e: bulkEng}
	etl := NewETL()
	loaded, err := etl.LoadStaged(ct, bulkEng.Dialect(), "t", stageRows(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("bulk loaded = %d, want %d", loaded, n)
	}
	if ct.bulks == 0 || ct.execs != 0 {
		t.Fatalf("bulk target: %d InsertRows / %d Exec calls, want only InsertRows", ct.bulks, ct.execs)
	}
	wantBatches := (n + 127) / 128
	if ct.bulks != wantBatches {
		t.Fatalf("bulk batches = %d, want %d", ct.bulks, wantBatches)
	}

	execEng := newLoadTarget(t, "exec")
	loaded, err = etl.LoadStaged(execOnly{execEng}, execEng.Dialect(), "t", stageRows(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != n {
		t.Fatalf("exec loaded = %d, want %d", loaded, n)
	}

	a, err := bulkEng.Query("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := execEng.Query("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != n || len(b.Rows) != n {
		t.Fatalf("row counts: bulk %d exec %d, want %d", len(a.Rows), len(b.Rows), n)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if sqlengine.Compare(a.Rows[i][j], b.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: bulk %v exec %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

// Bulk-path errors (bad arity, unknown table) surface like Exec-path ones.
func TestLoadStagedBulkErrors(t *testing.T) {
	e := newLoadTarget(t, "errs")
	etl := NewETL()
	if _, err := etl.LoadStaged(e, e.Dialect(), "nosuch", stageRows(t, makeRows(1))); err == nil {
		t.Error("missing table accepted by bulk path")
	}
	short := []sqlengine.Row{{sqlengine.NewInt(1)}} // table has 2 columns
	if _, err := etl.LoadStaged(e, e.Dialect(), "t", stageRows(t, short)); err == nil {
		t.Error("arity mismatch accepted by bulk path")
	}
}

// InitWarehouse populates dim_run in one batched insert, and re-running it
// (second ntuple sharing the warehouse, overlapping runs) falls back to
// per-row skips for the duplicates while still adding the new runs.
func TestInitWarehouseBatchedDimsAndRerun(t *testing.T) {
	wh := sqlengine.NewEngine("wh", sqlengine.DialectOracle)
	ct := &countingTarget{e: wh}
	cfg := ntuple.Config{Name: "nta", NVar: 2, NEvents: 10, Runs: 3, Seed: 1}
	if err := InitWarehouse(ct, wh.Dialect(), cfg); err != nil {
		t.Fatal(err)
	}
	if ct.bulks != 1 {
		t.Fatalf("dim_run bulk inserts = %d, want 1 batch", ct.bulks)
	}
	rs, err := wh.Query(`SELECT COUNT(*) FROM "dim_run"`)
	if err != nil || rs.Rows[0][0].Int != 3 {
		t.Fatalf("dim_run after init: %v %v", rs, err)
	}

	// Second ntuple, superset of runs: 100..102 duplicate, 103..104 new.
	cfg2 := ntuple.Config{Name: "ntb", NVar: 2, NEvents: 10, Runs: 5, Seed: 2}
	if err := InitWarehouse(ct, wh.Dialect(), cfg2); err != nil {
		t.Fatal(err)
	}
	rs, err = wh.Query(`SELECT COUNT(*) FROM "dim_run"`)
	if err != nil || rs.Rows[0][0].Int != 5 {
		t.Fatalf("dim_run after rerun: %v %v", rs, err)
	}
	// No duplicated run numbers slipped through the fallback.
	rs, err = wh.Query(`SELECT COUNT(DISTINCT "run") FROM "dim_run"`)
	if err != nil || rs.Rows[0][0].Int != 5 {
		t.Fatalf("distinct runs: %v %v", rs, err)
	}

	// A wire-style warehouse (Exec only) initializes identically.
	wh2 := sqlengine.NewEngine("wh2", sqlengine.DialectOracle)
	if err := InitWarehouse(execOnly{wh2}, wh2.Dialect(), cfg); err != nil {
		t.Fatal(err)
	}
	rs, err = wh2.Query(`SELECT COUNT(*) FROM "dim_run"`)
	if err != nil || rs.Rows[0][0].Int != 3 {
		t.Fatalf("exec-only dim_run: %v %v", rs, err)
	}
}
