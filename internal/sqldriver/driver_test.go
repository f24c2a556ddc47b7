package sqldriver

import (
	"database/sql"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/wire"
)

func newLocalEngine(t *testing.T, name string, d *sqlengine.Dialect) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine(name, d)
	RegisterEngine(e)
	t.Cleanup(func() { UnregisterEngine(name) })
	return e
}

func TestLocalDSN(t *testing.T) {
	e := newLocalEngine(t, "marta", sqlengine.DialectMySQL)
	if err := e.ExecScript("CREATE TABLE t (a BIGINT, b VARCHAR(10)); INSERT INTO t VALUES (1,'x'),(2,'y')"); err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("gridsql-mysql", "local://marta")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rows, err := db.Query("SELECT a, b FROM t WHERE a > ? ORDER BY a", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		var a int64
		var b string
		if err := rows.Scan(&a, &b); err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("got %v", got)
	}

	res, err := db.Exec("INSERT INTO t VALUES (?, ?)", int64(3), "z")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("rows affected = %d", n)
	}
}

func TestDialectEnforcement(t *testing.T) {
	newLocalEngine(t, "orahost", sqlengine.DialectOracle)
	// Correct driver works.
	db, err := sql.Open("gridsql-oracle", "local://orahost")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ping(); err != nil {
		t.Fatalf("oracle driver to oracle engine: %v", err)
	}
	db.Close()
	// Wrong vendor driver must refuse (the NxS mismatch the paper
	// discusses).
	db, err = sql.Open("gridsql-mysql", "local://orahost")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ping(); err == nil {
		t.Fatal("mysql driver connected to oracle engine")
	}
	db.Close()
	// Generic driver accepts any engine.
	db, err = sql.Open("gridsql", "local://orahost")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}
	db.Close()
}

func TestTCPDSN(t *testing.T) {
	e := sqlengine.NewEngine("remote1", sqlengine.DialectMSSQL)
	e.AddUser("u", "p")
	if err := e.ExecScript("CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(nil)
	srv.AddEngine(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	db, err := sql.Open("gridsql", "tcp://u:p@"+addr+"/remote1")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var a int64
	if err := db.QueryRow("SELECT TOP 1 a FROM t").Scan(&a); err != nil {
		t.Fatal(err)
	}
	if a != 7 {
		t.Fatalf("a = %d", a)
	}

	// Bad credentials fail at connect time.
	bad, _ := sql.Open("gridsql", "tcp://u:wrong@"+addr+"/remote1")
	defer bad.Close()
	if err := bad.Ping(); err == nil {
		t.Fatal("bad credentials accepted")
	}
}

// cutProxy forwards TCP connections to a backend until cut severs every
// connection it carries.
type cutProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newCutProxy(t *testing.T, backend string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, client, server)
			p.mu.Unlock()
			p.wg.Add(2)
			go p.pipe(server, client)
			go p.pipe(client, server)
		}
	}()
	return p
}

func (p *cutProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src)
	dst.Close()
	src.Close()
}

func (p *cutProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *cutProxy) close() {
	p.ln.Close()
	p.cut()
	p.wg.Wait()
}

// TestBrokenTCPConnLeavesPool: a pooled tcp:// connection whose link was
// cut while it sat idle leaves the pool when database/sql hands it out
// (ResetSession), so the next query runs on a fresh one and succeeds.
func TestBrokenTCPConnLeavesPool(t *testing.T) {
	defer leaktest.Check(t)()
	e := sqlengine.NewEngine("cut1", sqlengine.DialectMySQL)
	if err := e.ExecScript("CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(nil)
	srv.AddEngine(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newCutProxy(t, addr)
	defer proxy.close()

	db, err := sql.Open("gridsql", "tcp://"+proxy.ln.Addr().String()+"/cut1")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	query := func() error {
		var a int64
		return db.QueryRow("SELECT a FROM t").Scan(&a)
	}
	if err := query(); err != nil {
		t.Fatal(err)
	}
	// A second link through the proxy, cut after the pooled one: its
	// request fails once the cut has reached the client's side.
	probe, err := wire.Dial(proxy.ln.Addr().String(), wire.Hello{Database: "cut1"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	proxy.cut()
	if _, err := probe.Query("SELECT a FROM t"); err == nil {
		t.Fatal("query over a cut link succeeded")
	}
	for i := 0; i < 3; i++ {
		if err := query(); err != nil {
			t.Fatalf("query %d after the cut: %v", i, err)
		}
	}
	if n := db.Stats().OpenConnections; n != 1 {
		t.Fatalf("%d open connections after reconnecting, want 1", n)
	}
}

func TestFileDSN(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lap.gridsql")
	e := sqlengine.NewEngine("laptop", sqlengine.DialectSQLite)
	if err := e.ExecScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("gridsql-sqlite", "file://"+path)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := db.Conn(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ExecContext(t.Context(), "INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := conn.QueryRowContext(t.Context(), "SELECT COUNT(*) FROM t").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count = %d", n)
	}
	conn.Close()
	db.Close()
	// Changes persisted on close.
	e2, err := sqlengine.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e2.Query("SELECT COUNT(*) FROM t")
	if err != nil || rs.Rows[0][0].Int != 2 {
		t.Fatalf("persisted count: %v %v", rs, err)
	}
}

func TestTransactions(t *testing.T) {
	e := newLocalEngine(t, "txdb", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	db, err := sql.Open("gridsql", "local://txdb")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow("SELECT COUNT(*) FROM t").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("rollback lost rows: %d", n)
	}
}

func TestNullScan(t *testing.T) {
	e := newLocalEngine(t, "nulldb", sqlengine.DialectANSI)
	if err := e.ExecScript("CREATE TABLE t (a INTEGER, s VARCHAR(8)); INSERT INTO t VALUES (NULL, NULL)"); err != nil {
		t.Fatal(err)
	}
	db, _ := sql.Open("gridsql", "local://nulldb")
	defer db.Close()
	var a sql.NullInt64
	var s sql.NullString
	if err := db.QueryRow("SELECT a, s FROM t").Scan(&a, &s); err != nil {
		t.Fatal(err)
	}
	if a.Valid || s.Valid {
		t.Fatalf("NULLs scanned as valid: %+v %+v", a, s)
	}
}

func TestBadDSNs(t *testing.T) {
	for _, dsn := range []string{"local://nosuch-engine", "bogus://x", "file:///nonexistent/path/db"} {
		db, err := sql.Open("gridsql", dsn)
		if err != nil {
			continue // rejected at open: fine
		}
		if err := db.Ping(); err == nil {
			t.Errorf("DSN %q connected", dsn)
		}
		db.Close()
	}
}
