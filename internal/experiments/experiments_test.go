package experiments

import (
	"context"
	"testing"

	"gridrdb/internal/netsim"
)

// The experiment runners must preserve the paper's qualitative shapes even
// at test scale. These are the repo's "does the reproduction reproduce"
// tests.

func TestFig4Shape(t *testing.T) {
	rows, err := RunFig4([]int{5, 100, 400}, netsim.Local)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotone in size: more events -> bigger staging file.
	for i := 1; i < len(rows); i++ {
		if rows[i].SizeKB <= rows[i-1].SizeKB {
			t.Errorf("size not monotone: %v", rows)
		}
	}
	// Extraction and loading both nonzero; both grow with size.
	last := rows[len(rows)-1]
	first := rows[0]
	if last.ExtractSec <= first.ExtractSec/2 || last.LoadSec <= first.LoadSec/2 {
		t.Errorf("times did not grow with size: first=%+v last=%+v", first, last)
	}
	if first.Rows != 5 || last.Rows != 400 {
		t.Errorf("row counts: %+v", rows)
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := RunFig5([]int{5, 200}, netsim.Local)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1].SizeKB <= rows[0].SizeKB {
		t.Fatalf("fig5 rows: %+v", rows)
	}
	// Stage 2 transfers one run view, i.e. all events with Runs=1.
	if rows[1].Rows != 200 {
		t.Errorf("view rows = %d, want 200", rows[1].Rows)
	}
}

func TestTable1AndFig6SmallDeployment(t *testing.T) {
	d, err := Deploy(SmallDeploy())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rows, err := RunTable1(d, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("table1 rows: %+v", rows)
	}
	if rows[0].Distributed || !rows[1].Distributed || !rows[2].Distributed {
		t.Errorf("distribution flags: %+v", rows)
	}
	if rows[0].Tables != 1 || rows[1].Tables != 2 || rows[2].Tables != 4 {
		t.Errorf("table counts: %+v", rows)
	}
	if rows[2].Servers != 2 {
		t.Errorf("q3 servers: %+v", rows[2])
	}
	// Shape: distributed queries are slower than the local single-table
	// query; the two-server query is slowest.
	if !(rows[0].ResponseMS <= rows[1].ResponseMS && rows[1].ResponseMS <= rows[2].ResponseMS) {
		t.Errorf("response ordering violated: %+v", rows)
	}

	f6, err := RunFig6(d, []int{5, 50, 250}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6) != 3 {
		t.Fatalf("fig6 rows: %+v", f6)
	}
	for i, r := range []int{5, 50, 250} {
		if f6[i].RowsRequested != r {
			t.Errorf("row count %d: %+v", r, f6[i])
		}
	}
}

func TestDeploymentRouting(t *testing.T) {
	d, err := Deploy(SmallDeploy())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Local single-table query on server 1 (ev1 lives in d1, MySQL,
	// POOL-supported -> RAL).
	qr, err := d.Serv1.QueryContext(context.Background(), "SELECT event_id FROM ev1 WHERE run = 102")
	if err != nil {
		t.Fatal(err)
	}
	if string(qr.Route) != "pool-ral" {
		t.Errorf("ev1 route = %s", qr.Route)
	}
	// ev2 lives in d2 (MS-SQL, not POOL-supported) -> Unity.
	qr, err = d.Serv1.QueryContext(context.Background(), "SELECT event_id FROM ev2 WHERE run = 102")
	if err != nil {
		t.Fatal(err)
	}
	if string(qr.Route) != "unity" {
		t.Errorf("ev2 route = %s", qr.Route)
	}
	// ev5 lives on server 2 -> remote.
	qr, err = d.Serv1.QueryContext(context.Background(), "SELECT event_id FROM ev5 WHERE run = 102")
	if err != nil {
		t.Fatal(err)
	}
	if string(qr.Route) != "remote" || qr.Servers != 2 {
		t.Errorf("ev5 route = %s servers=%d", qr.Route, qr.Servers)
	}
}
