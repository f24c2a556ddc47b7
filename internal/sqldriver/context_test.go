package sqldriver

import (
	"context"
	"database/sql"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/sqlengine"
)

func TestContextCancellation(t *testing.T) {
	e := newLocalEngine(t, "ctxdb", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("gridsql", "local://ctxdb")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT a FROM t"); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if _, err := db.ExecContext(ctx, "INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("cancelled exec succeeded")
	}
	// Live context still works afterwards.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	var a int64
	if err := db.QueryRowContext(ctx2, "SELECT a FROM t").Scan(&a); err != nil || a != 1 {
		t.Fatalf("post-cancel query: %v %d", err, a)
	}
}

func TestPreparedStatements(t *testing.T) {
	e := newLocalEngine(t, "prepdb", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (a INTEGER, b VARCHAR(8))"); err != nil {
		t.Fatal(err)
	}
	db, _ := sql.Open("gridsql", "local://prepdb")
	defer db.Close()
	stmt, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 10; i++ {
		if _, err := stmt.Exec(int64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	q, err := db.Prepare("SELECT COUNT(*) FROM t WHERE a < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var n int64
	if err := q.QueryRow(int64(5)).Scan(&n); err != nil || n != 5 {
		t.Fatalf("prepared query: %v %d", err, n)
	}
}

func TestRowsAffectedAndLastInsertId(t *testing.T) {
	e := newLocalEngine(t, "resdb", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1),(2),(3)"); err != nil {
		t.Fatal(err)
	}
	db, _ := sql.Open("gridsql", "local://resdb")
	defer db.Close()
	res, err := db.Exec("UPDATE t SET a = a + 1 WHERE a >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 2 {
		t.Fatalf("rows affected = %d", n)
	}
	if _, err := res.LastInsertId(); err == nil {
		t.Fatal("LastInsertId should be unsupported")
	}
}

func TestConnectionPoolReuse(t *testing.T) {
	e := newLocalEngine(t, "pooldb", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	db, _ := sql.Open("gridsql", "local://pooldb")
	defer db.Close()
	db.SetMaxOpenConns(2)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				if _, err := db.Exec("INSERT INTO t VALUES (?)", int64(i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM t").Scan(&n); err != nil || n != 160 {
		t.Fatalf("count = %d (%v)", n, err)
	}
}

// TestPreparedPlaceholderInLiteral: a '?' inside a string literal is no
// parameter, prepared or not; a parameter the statement reads and was not
// given is the engine's error.
func TestPreparedPlaceholderInLiteral(t *testing.T) {
	e := newLocalEngine(t, "prepquote", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (s VARCHAR(8)); INSERT INTO t VALUES ('?'), ('x')"); err != nil {
		t.Fatal(err)
	}
	db, _ := sql.Open("gridsql", "local://prepquote")
	defer db.Close()
	q, err := db.Prepare("SELECT s FROM t WHERE s = '?'")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var s string
	if err := q.QueryRow().Scan(&s); err != nil || s != "?" {
		t.Fatalf("prepared query with '?' in a literal: %v %q", err, s)
	}
	q2, err := db.Prepare("SELECT s FROM t WHERE s = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if err := q2.QueryRow().Scan(&s); err == nil || !strings.Contains(err.Error(), "missing value for parameter 1") {
		t.Fatalf("prepared query missing its parameter: %v", err)
	}
}

// TestRowsStreamRowError: database/sql reads a local SELECT as the
// engine's pipeline runs, so a row error surfaces from rows.Err after
// the rows before it, not from the query.
func TestRowsStreamRowError(t *testing.T) {
	e := newLocalEngine(t, "rowerr", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (id INTEGER, d INTEGER); INSERT INTO t VALUES (1, 1), (2, 1), (3, 0), (4, 1)"); err != nil {
		t.Fatal(err)
	}
	db, _ := sql.Open("gridsql", "local://rowerr")
	defer db.Close()
	rows, err := db.Query("SELECT id, 10 / d FROM t")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); n != 2 || err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("%d rows, then %v; want 2 rows, then division by zero", n, err)
	}
}
