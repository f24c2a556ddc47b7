package ntuple

import (
	"testing"
	"testing/quick"

	"gridrdb/internal/sqlengine"
)

func TestGeneratorDeterminism(t *testing.T) {
	cfg := Config{Name: "nt", NVar: 4, NEvents: 50, Runs: 3, Seed: 7}
	a := NewGenerator(cfg).Events()
	b := NewGenerator(cfg).Events()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Run != b[i].Run {
			t.Fatalf("event %d differs", i)
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Fatalf("event %d value %d differs", i, j)
			}
		}
	}
}

func TestEventShape(t *testing.T) {
	cfg := Config{Name: "nt", NVar: 10, NEvents: 200, Runs: 4, Seed: 1}
	events := NewGenerator(cfg).Events()
	runs := map[int64]bool{}
	for _, ev := range events {
		if len(ev.Values) != 10 {
			t.Fatalf("event %d has %d values", ev.ID, len(ev.Values))
		}
		if ev.Run < 100 || ev.Run >= 104 {
			t.Fatalf("event %d run %d out of range", ev.ID, ev.Run)
		}
		runs[ev.Run] = true
		for _, v := range ev.Values {
			if v < 0 {
				t.Fatalf("negative value %f", v)
			}
		}
	}
	if len(runs) < 2 {
		t.Error("events not spread over runs")
	}
}

func TestPopulateNormalized(t *testing.T) {
	cfg := Config{Name: "nt", NVar: 3, NEvents: 20, Runs: 2, Seed: 9}
	e := sqlengine.NewEngine("src", sqlengine.DialectMySQL)
	n, err := NewGenerator(cfg).PopulateNormalized(e)
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 { // NVar * NEvents value rows
		t.Fatalf("value rows = %d, want 60", n)
	}
	rs, err := e.Query("SELECT COUNT(*) FROM nt_events")
	if err != nil || rs.Rows[0][0].Int != 20 {
		t.Fatalf("events: %v %v", rs, err)
	}
	rs, err = e.Query("SELECT nvar, nevents FROM nt_meta")
	if err != nil || rs.Rows[0][0].Int != 3 || rs.Rows[0][1].Int != 20 {
		t.Fatalf("meta: %v %v", rs, err)
	}
	rs, err = e.Query("SELECT COUNT(*) FROM nt_vars")
	if err != nil || rs.Rows[0][0].Int != 3 {
		t.Fatalf("vars: %v %v", rs, err)
	}
	// The normalized schema joins back into wide form consistently.
	rs, err = e.Query("SELECT COUNT(*) FROM nt_values v JOIN nt_events e ON v.event_id = e.event_id")
	if err != nil || rs.Rows[0][0].Int != 60 {
		t.Fatalf("join: %v %v", rs, err)
	}
}

func TestNormalizedDDLAllDialects(t *testing.T) {
	cfg := Config{Name: "nt", NVar: 8, NEvents: 100, Runs: 4, Seed: 42}
	for _, d := range []*sqlengine.Dialect{
		sqlengine.DialectOracle, sqlengine.DialectMySQL,
		sqlengine.DialectMSSQL, sqlengine.DialectSQLite,
	} {
		e := sqlengine.NewEngine("x", d)
		for _, ddl := range NormalizedDDL(cfg, d) {
			if _, err := e.Exec(ddl); err != nil {
				t.Errorf("%s: %v\n%s", d.Name, err, ddl)
			}
		}
		for _, ddl := range StarDDL(cfg, d) {
			if _, err := e.Exec(ddl); err != nil {
				t.Errorf("%s star: %v\n%s", d.Name, err, ddl)
			}
		}
	}
}

func TestStarHelpers(t *testing.T) {
	cfg := Config{Name: "nt", NVar: 2, NEvents: 1, Runs: 3, Seed: 1}
	cols := StarColumns(cfg)
	if len(cols) != 4 || cols[0] != "event_id" || cols[3] != "v1" {
		t.Fatalf("cols = %v", cols)
	}
	ev := Event{ID: 5, Run: 101, Values: []float64{1.5, 2.5}}
	row := FactRow(ev)
	if len(row) != 4 || row[0].Int != 5 || row[3].Float != 2.5 {
		t.Fatalf("row = %v", row)
	}
	rr := RunRows(cfg)
	if len(rr) != 3 || rr[0][0].Int != 100 {
		t.Fatalf("run rows = %v", rr)
	}
	if FactTableName("nt") != "fact_nt" || DimRunTableName() != "dim_run" {
		t.Error("table names")
	}
}

// Property: generated event IDs are dense 1..NEvents for any config.
func TestEventIDsDense(t *testing.T) {
	f := func(nvar, nev uint8) bool {
		cfg := Config{Name: "p", NVar: int(nvar%8) + 1, NEvents: int(nev % 64), Runs: 2, Seed: int64(nvar)}
		events := NewGenerator(cfg).Events()
		if len(events) != cfg.NEvents {
			return false
		}
		for i, ev := range events {
			if ev.ID != int64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FactRow converts an event to a wide fact-table row.
func FactRow(ev Event) sqlengine.Row {
	row := make(sqlengine.Row, 0, 2+len(ev.Values))
	row = append(row, sqlengine.NewInt(ev.ID), sqlengine.NewInt(ev.Run))
	for _, v := range ev.Values {
		row = append(row, sqlengine.NewFloat(v))
	}
	return row
}
