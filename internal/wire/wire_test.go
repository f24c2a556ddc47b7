package wire

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gridrdb/internal/leaktest"
	"gridrdb/internal/netsim"
	"gridrdb/internal/sqlengine"
)

func startServer(t *testing.T, engs ...*sqlengine.Engine) (*Server, string) {
	t.Helper()
	s := NewServer(nil)
	for _, e := range engs {
		s.AddEngine(e)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func testEngine(t *testing.T, name string) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine(name, sqlengine.DialectMySQL)
	if err := e.ExecScript("CREATE TABLE t (a BIGINT, b VARCHAR(32)); INSERT INTO t VALUES (1, 'x'), (2, 'y')"); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQueryExecRoundTrip(t *testing.T) {
	e := testEngine(t, "db1")
	_, addr := startServer(t, e)
	c, err := Dial(addr, Hello{Database: "db1"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rs, err := c.Query("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 1 || rs.Rows[1][1].Str() != "y" {
		t.Fatalf("got %v", rs.Rows)
	}
	n, err := c.Exec("INSERT INTO t VALUES (?, ?)", sqlengine.NewInt(3), sqlengine.NewString("z"))
	if err != nil || n != 1 {
		t.Fatalf("exec: n=%d err=%v", n, err)
	}
	rs, err = c.Query("SELECT COUNT(*) FROM t")
	if err != nil || rs.Rows[0][0].Int != 3 {
		t.Fatalf("count after insert: %v %v", rs, err)
	}
	if _, err := c.roundTrip(&Request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
}

func TestAuthRequired(t *testing.T) {
	e := testEngine(t, "secure")
	e.AddUser("cms", "pw")
	_, addr := startServer(t, e)
	if _, err := Dial(addr, Hello{Database: "secure", User: "cms", Password: "nope"}, nil, nil); err == nil {
		t.Fatal("bad password accepted")
	}
	c, err := Dial(addr, Hello{Database: "secure", User: "cms", Password: "pw"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestUnknownDatabase(t *testing.T) {
	_, addr := startServer(t, testEngine(t, "db1"))
	if _, err := Dial(addr, Hello{Database: "nosuch"}, nil, nil); err == nil {
		t.Fatal("unknown database accepted")
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, addr := startServer(t, testEngine(t, "db1"))
	c, err := Dial(addr, Hello{Database: "db1"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT nosuch FROM t"); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("want unknown column error, got %v", err)
	}
}

func TestTransactionsPerConnection(t *testing.T) {
	e := testEngine(t, "db1")
	_, addr := startServer(t, e)
	c1, err := Dial(addr, Hello{Database: "db1"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("DELETE FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	rs, err := c1.Query("SELECT COUNT(*) FROM t")
	if err != nil || rs.Rows[0][0].Int != 2 {
		t.Fatalf("rollback over wire failed: %v %v", rs, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	e := testEngine(t, "db1")
	_, addr := startServer(t, e)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, Hello{Database: "db1"}, nil, nil)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Query("SELECT a FROM t WHERE a = 1"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNetsimCharging(t *testing.T) {
	e := testEngine(t, "db1")
	_, addr := startServer(t, e)
	clock := &netsim.Clock{}
	profile := &netsim.Profile{Name: "test", RTT: time.Millisecond, ConnectCost: 10 * time.Millisecond, Sleep: false}
	c, err := Dial(addr, Hello{Database: "db1"}, profile, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := clock.Simulated(); got != 10*time.Millisecond {
		t.Fatalf("connect cost = %v, want 10ms", got)
	}
	if _, err := c.Query("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := clock.Simulated(); got < 11*time.Millisecond {
		t.Fatalf("query did not charge RTT: %v", got)
	}
}

func TestServerCloseStopsAccept(t *testing.T) {
	s := NewServer(nil)
	s.AddEngine(testEngine(t, "db1"))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, Hello{Database: "db1"}, nil, nil); err == nil {
		t.Fatal("dial succeeded after close")
	}
}

// TestNetsimChargesFrameBytes: a round trip is charged for exactly the SQL
// text, the parameter frame and the result frame it carries.
func TestNetsimChargesFrameBytes(t *testing.T) {
	_, addr := startServer(t, testEngine(t, "db1"))
	clock := &netsim.Clock{}
	profile := &netsim.Profile{Name: "ns-per-byte", BytesPerSecond: 1e9}
	c, err := Dial(addr, Hello{Database: "db1"}, profile, clock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sql = "SELECT a, b FROM t WHERE a >= ?"
	param := sqlengine.NewInt(0)
	rs, err := c.Query(sql, param)
	if err != nil {
		t.Fatal(err)
	}
	want := len(sql) + len(sqlengine.AppendRowFrame(nil, []sqlengine.Row{{param}})) + len(sqlengine.AppendRowFrame(nil, rs.Rows))
	if got := clock.Simulated(); got < time.Duration(want-1) || got > time.Duration(want+1) {
		t.Fatalf("charged %v for %d bytes", got, want)
	}
}

// TestParamsAreOneFrameRow: the server takes a statement's parameters from
// a frame holding exactly one row, and answers anything else with an error
// on a connection that stays usable.
func TestParamsAreOneFrameRow(t *testing.T) {
	_, addr := startServer(t, testEngine(t, "db1"))
	c, err := Dial(addr, Hello{Database: "db1"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, params := range [][]byte{
		nil,
		{'X', 1, 0},
		sqlengine.AppendRowFrame(nil, nil),
		sqlengine.AppendRowFrame(nil, []sqlengine.Row{{sqlengine.NewInt(1)}, {sqlengine.NewInt(2)}}),
	} {
		if _, err := c.roundTrip(&Request{Op: "query", SQL: "SELECT a FROM t WHERE a = ?", Params: params}); err == nil || !strings.Contains(err.Error(), "params") {
			t.Fatalf("params %x: got %v, want a params error", params, err)
		}
	}
	rs, err := c.Query("SELECT b FROM t WHERE a = ?", sqlengine.NewInt(2))
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "y" {
		t.Fatalf("query after rejected params: %v %v", rs, err)
	}
	if c.Broken() {
		t.Fatal("a rejected request broke the connection")
	}
}

// TestServerCloseCutsIdleClients: Close returns while a client holds an
// idle connection, that client's next call fails and marks it broken, and
// no server goroutine is left behind.
func TestServerCloseCutsIdleClients(t *testing.T) {
	defer leaktest.Check(t)()
	s := NewServer(nil)
	s.AddEngine(testEngine(t, "db1"))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, Hello{Database: "db1"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked with an idle client connected")
	}
	_, err = c.Query("SELECT a FROM t")
	if err == nil {
		t.Fatal("query succeeded on a connection the server closed")
	}
	if !c.Broken() {
		t.Fatalf("client not broken after %v", err)
	}
	if _, again := c.Exec("DELETE FROM t"); again == nil || again.Error() != err.Error() {
		t.Fatalf("broken client: got %v, want its first error %v", again, err)
	}
}
