package poolral

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/wire"
)

func localOracle(t *testing.T, name string) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine(name, sqlengine.DialectOracle)
	err := e.ExecScript(`CREATE TABLE "ev" ("id" NUMBER PRIMARY KEY, "run" NUMBER, "e" BINARY_DOUBLE);` +
		`INSERT INTO "ev" VALUES (1, 100, 5.5), (2, 100, 6.5), (3, 101, NULL);` +
		`CREATE TABLE "runs" ("run" NUMBER PRIMARY KEY, "det" VARCHAR2(8));` +
		`INSERT INTO "runs" VALUES (100, 'CMS'), (101, 'ATLAS')`)
	if err != nil {
		t.Fatal(err)
	}
	sqldriver.RegisterEngine(e)
	t.Cleanup(func() { sqldriver.UnregisterEngine(name) })
	return e
}

func TestInitAndQuery(t *testing.T) {
	localOracle(t, "whora")
	r := New()
	defer r.Close()
	conn := "oracle:local://whora"
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-init.
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	if n := len(r.handles); n != 1 {
		t.Fatalf("handles = %d", n)
	}
	rows, err := r.Query(conn, []string{"id", "e"}, []string{"ev"}, `"run" = 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != "1" || rows[0][1] != "5.5" {
		t.Fatalf("rows = %v", rows)
	}
	// NULL renders as empty string in the 2-D array form.
	rows, err = r.Query(conn, []string{"e"}, []string{"ev"}, `"run" = 101`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "" {
		t.Fatalf("NULL rendered as %q", rows[0][0])
	}
}

func TestQueryValuesTyped(t *testing.T) {
	localOracle(t, "whora")
	r := New()
	defer r.Close()
	conn := "oracle:local://whora"
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	rs, err := r.QueryValuesContext(context.Background(), conn, []string{"id"}, []string{"ev"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 || rs.Rows[0][0].Kind != sqlengine.KindInt {
		t.Fatalf("typed rows: %v", rs.Rows)
	}
	if rs.Columns[0] != "id" {
		t.Errorf("columns: %v", rs.Columns)
	}
}

func TestJoinWithinOneDatabase(t *testing.T) {
	localOracle(t, "whora")
	r := New()
	defer r.Close()
	conn := "oracle:local://whora"
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	// POOL allows multi-table access *within one database*.
	rows, err := r.Query(conn, []string{"ev.id", "runs.det"}, []string{"ev", "runs"}, `"ev"."run" = "runs"."run" AND "runs"."det" = 'CMS'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("join rows = %v", rows)
	}
}

func TestUnsupportedVendorRejected(t *testing.T) {
	r := New()
	defer r.Close()
	// MS-SQL is the paper's canonical non-POOL vendor.
	err := r.InitHandler("mssql:local://anything", "", "")
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("mssql accepted by POOL-RAL: %v", err)
	}
	if Supported("mssql") {
		t.Error("Supported(mssql) = true")
	}
	for _, v := range []string{"oracle", "mysql", "sqlite"} {
		if !Supported(v) {
			t.Errorf("Supported(%s) = false", v)
		}
	}
}

func TestQueryWithoutInit(t *testing.T) {
	r := New()
	if _, err := r.Query("oracle:local://never", nil, []string{"t"}, ""); err == nil {
		t.Fatal("query on uninitialized handle accepted")
	}
}

func TestMalformedConnString(t *testing.T) {
	r := New()
	for _, cs := range []string{"", "nocolon", ":empty-vendor"} {
		if err := r.InitHandler(cs, "", ""); err == nil {
			t.Errorf("conn string %q accepted", cs)
		}
	}
}

func TestRemoteWithCredentials(t *testing.T) {
	e := sqlengine.NewEngine("remoteora", sqlengine.DialectOracle)
	e.AddUser("pool", "pw")
	if err := e.ExecScript(`CREATE TABLE "t" ("a" NUMBER); INSERT INTO "t" VALUES (9)`); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(nil)
	srv.AddEngine(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := New()
	defer r.Close()
	conn := "oracle:tcp://" + addr + "/remoteora"
	if err := r.InitHandler(conn, "pool", "pw"); err != nil {
		t.Fatal(err)
	}
	rows, err := r.Query(conn, []string{"a"}, []string{"t"}, "")
	if err != nil || len(rows) != 1 || rows[0][0] != "9" {
		t.Fatalf("remote query: %v %v", rows, err)
	}
	// Wrong password fails at init.
	r2 := New()
	defer r2.Close()
	if err := r2.InitHandler("oracle:tcp://"+addr+"/remoteora", "pool", "wrong"); err == nil {
		t.Fatal("bad credentials accepted")
	}
}

func TestBuildSelect(t *testing.T) {
	sqlText, err := buildSelect(sqlengine.DialectOracle, []string{"a", "t.b", "*"}, []string{"t"}, "a > 1")
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT "a", "t"."b", * FROM "t" WHERE a > 1`
	if sqlText != want {
		t.Errorf("got %q, want %q", sqlText, want)
	}
	if _, err := buildSelect(sqlengine.DialectOracle, nil, nil, ""); err == nil {
		t.Error("no tables accepted")
	}
}

func TestQueryValuesContextCancelled(t *testing.T) {
	localOracle(t, "whoractx")
	r := New()
	defer r.Close()
	conn := "oracle:local://whoractx"
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.QueryValuesContext(ctx, conn, []string{"id"}, []string{"ev"}, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	// A live context still works on the same handle afterwards.
	rs, err := r.QueryValuesContext(context.Background(), conn, []string{"id"}, []string{"ev"}, `"run" = 100`)
	if err != nil || len(rs.Rows) != 2 {
		t.Fatalf("post-cancel query: %v rows=%d", err, len(rs.Rows))
	}
}

// TestQueryStream: the incremental RAL path yields the same rows as the
// materializing one, respects io.EOF termination, and double-Close is
// safe.
func TestQueryStream(t *testing.T) {
	localOracle(t, "whora_stream")
	r := New()
	defer r.Close()
	conn := "oracle:local://whora_stream"
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	it, err := r.QueryStreamContext(context.Background(), conn, []string{"id", "e"}, []string{"ev"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if cols := it.Columns(); len(cols) != 2 {
		t.Fatalf("columns = %v", cols)
	}
	n := 0
	for {
		row, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != 2 {
			t.Fatalf("row = %v", row)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("streamed %d rows, want 3", n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal("double close:", err)
	}

	// Equivalence with the materializing path.
	rs, err := r.QueryValuesContext(context.Background(), conn, []string{"id", "e"}, []string{"ev"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("materialized rows = %d", len(rs.Rows))
	}
}

// TestQueryStreamDeadContext: a cancelled context is rejected before any
// connection is pinned.
func TestQueryStreamDeadContext(t *testing.T) {
	localOracle(t, "whora_streamdead")
	r := New()
	defer r.Close()
	conn := "oracle:local://whora_streamdead"
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.QueryStreamContext(ctx, conn, nil, []string{"ev"}, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

// Query renders the RAL's select as method 2 of the JNI wrapper did: a
// 2-D string array (the paper's "2D array containing the results"), with
// NULL rendered as the empty string.
func (r *RAL) Query(connString string, fields, tables []string, where string) ([][]string, error) {
	rs, err := r.QueryValuesContext(context.Background(), connString, fields, tables, where)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(rs.Rows))
	for i, row := range rs.Rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			if v.IsNull() {
				out[i][j] = ""
			} else {
				out[i][j] = v.String()
			}
		}
	}
	return out, nil
}
