package unity

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/wire"
	"gridrdb/internal/xspec"
)

// noValidatorDriverName is gridrdb's driver without driver.Validator:
// like many third-party drivers, its connection whose link broke stays in
// the pool and answers driver.ErrBadConn to the next statement, which
// must then be retried on another connection.
const noValidatorDriverName = "gridsql-novalidator-test"

func init() { sql.Register(noValidatorDriverName, noValidatorDriver{&sqldriver.Driver{}}) }

type noValidatorDriver struct{ *sqldriver.Driver }

func (d noValidatorDriver) Open(dsn string) (driver.Conn, error) {
	c, err := d.Driver.Open(dsn)
	if err != nil {
		return nil, err
	}
	return noValidatorConn{c}, nil
}

// noValidatorConn exposes driver.Conn and the typed member entry only.
type noValidatorConn struct{ driver.Conn }

func (c noValidatorConn) QueryValues(ctx context.Context, query string, params []sqlengine.Value) (sqlengine.RowIter, error) {
	return c.Conn.(sqlengine.ValueQueryer).QueryValues(ctx, query, params)
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

// assertIdle fails unless every source of f has no load in flight and no
// pooled connection in use.
func assertIdle(t *testing.T, f *Federation, after string) {
	t.Helper()
	f.mu.RLock()
	defer f.mu.RUnlock()
	for name, s := range f.sources {
		if n := s.inflight.Load(); n != 0 {
			t.Errorf("after %s: source %s has %d loads in flight", after, name, n)
		}
		if n := s.db.Stats().InUse; n != 0 {
			t.Errorf("after %s: source %s has %d connections in use", after, name, n)
		}
	}
}

// TestMemberLoadFaults: a member load survives a broken tcp:// link (the
// pooled connection answers driver.ErrBadConn and the statement runs
// again on a fresh one), a cancelled context ends a load mid-drain with
// context.Canceled, a load holds its source's in-flight count until it is
// closed, and no statement leaves a load counted or a connection in use.
func TestMemberLoadFaults(t *testing.T) {
	t.Run("bad conn retried", func(t *testing.T) {
		e := sqlengine.NewEngine("cutm", sqlengine.DialectMySQL)
		if err := e.ExecScript("CREATE TABLE t (a BIGINT PRIMARY KEY); INSERT INTO t VALUES (7), (8)"); err != nil {
			t.Fatal(err)
		}
		spec, err := xspec.Generate("cutm", "mysql", e)
		if err != nil {
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
		f, err := Open(&xspec.UpperSpec{Name: "cut", Sources: []xspec.SourceRef{{Name: "cutm",
			URL: "tcp://" + proxy.ln.Addr().String() + "/cutm", Driver: noValidatorDriverName}}},
			map[string]*xspec.LowerSpec{"cutm": spec})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		defer leaktest.Check(t)()
		f.sources["cutm"].db.SetMaxOpenConns(1)
		query := func() error {
			rs, err := f.QueryContext(context.Background(), "SELECT a FROM t")
			if err == nil && len(rs.Rows) != 2 {
				err = fmt.Errorf("%d rows, want 2", len(rs.Rows))
			}
			return err
		}
		if err := query(); err != nil {
			t.Fatal(err)
		}
		assertIdle(t, f, "the first statement")
		proxy.cut()
		// The statement that meets the cut fails; its connection, broken
		// now, stays pooled because the driver reports no validity.
		if err := query(); err == nil {
			t.Fatal("a statement over a cut link succeeded")
		}
		assertIdle(t, f, "the failed statement")
		// The next one draws that connection, gets driver.ErrBadConn
		// before anything is sent, and runs on a fresh connection.
		if err := query(); err != nil {
			t.Fatalf("after the cut: %v", err)
		}
		assertIdle(t, f, "the retried statement")
		if n := f.sources["cutm"].db.Stats().OpenConnections; n != 1 {
			t.Errorf("%d open connections after the retry, want 1", n)
		}
	})

	t.Run("cancel mid-drain", func(t *testing.T) {
		f := buildFederation(t)
		defer leaktest.Check(t)()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		it, err := f.runOnSourceStreamCtx(ctx, "tier2my", "SELECT event_id FROM events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		if n := f.sources["tier2my"].inflight.Load(); n != 1 {
			t.Errorf("an open load counts %d in flight, want 1", n)
		}
		cancel()
		if _, err := it.Next(); !errors.Is(err, context.Canceled) {
			t.Errorf("Next after cancel: %v, want context.Canceled", err)
		}
		if n := f.sources["tier2my"].inflight.Load(); n != 1 {
			t.Errorf("a cancelled, unclosed load counts %d in flight, want 1", n)
		}
		it.Close()
		assertIdle(t, f, "a cancelled load")

		// The same through a decomposed statement's pipeline.
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		st, _, err := f.QueryStreamContext(ctx, "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(); err != nil {
			t.Fatal(err)
		}
		cancel()
		for err == nil {
			_, err = st.Next()
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("decomposed stream after cancel: %v, want context.Canceled", err)
		}
		st.Close()
		assertIdle(t, f, "a cancelled decomposed statement")

		rs, err := f.QueryContext(context.Background(), "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run")
		if err != nil || len(rs.Rows) == 0 {
			t.Fatalf("after the cancel: %v, %v", rs, err)
		}
		assertIdle(t, f, "a decomposed statement")
	})

	t.Run("cancel stops the member", func(t *testing.T) {
		f := federate(t, member{"stopm", sqlengine.DialectMySQL, "CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT)"})
		e, _ := sqldriver.LookupEngine("stopm")
		const n = 20000
		rows := make([]sqlengine.Row, n)
		for i := range rows {
			rows[i] = sqlengine.Row{sqlengine.NewInt(int64(i)), sqlengine.NewInt(1)}
		}
		if _, err := e.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		defer leaktest.Check(t)()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The member's scan cancels the statement at its row 100; no row
		// matches, so only the cancel can end the first Next early.
		var scanned atomic.Int64
		e.Database().ScanHook = func(string) {
			if scanned.Add(1) == 100 {
				cancel()
			}
		}
		it, err := f.runOnSourceStreamCtx(ctx, "stopm", "SELECT id FROM t WHERE d < 0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); !errors.Is(err, context.Canceled) {
			t.Errorf("Next after a cancel mid-scan: %v, want context.Canceled", err)
		}
		if got := scanned.Load(); got >= 200 {
			t.Errorf("the member read %d of %d rows after its statement was cancelled at row 100", got, n)
		}
		it.Close()
		assertIdle(t, f, "a member stopped by its cancel")
	})
}

// TestMemberRowErrorMidStream: a decomposed join whose probe-side load
// fails at its member's row 1 000 of 2 000 (the pushed-down filter
// divides by zero there) delivers the 999 joined rows before it, then the
// member's error; afterwards nothing is in flight, no connection is in
// use and no goroutine is left behind.
func TestMemberRowErrorMidStream(t *testing.T) {
	ids := func(n int, d func(id int) int64) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, %d)", i+1, d(i+1))
		}
		return strings.Join(vals, ", ")
	}
	f := federate(t,
		member{"rowerr_t", sqlengine.DialectMySQL, "CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT); INSERT INTO t VALUES " +
			ids(2000, func(id int) int64 { return map[bool]int64{true: 0, false: 1}[id == 1000] })},
		member{"rowerr_u", sqlengine.DialectMSSQL, "CREATE TABLE u (id BIGINT PRIMARY KEY, k BIGINT); INSERT INTO u VALUES " +
			ids(1000, func(int) int64 { return 1 })})
	defer leaktest.Check(t)()
	it, _, err := f.QueryStreamContext(context.Background(), "SELECT t.id FROM t JOIN u ON t.id = u.id WHERE 10 / t.d > 0")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got := int64(0)
	for {
		row, err := it.Next()
		if err != nil {
			if !strings.Contains(err.Error(), `unity: source "rowerr_t": sqlengine: division by zero`) {
				t.Errorf("after %d rows: %v, want the member's division by zero", got, err)
			}
			break
		}
		if got++; row[0].Int != got {
			t.Fatalf("row %d has id %d", got, row[0].Int)
		}
	}
	if got != 999 {
		t.Errorf("%d rows before the error, want 999", got)
	}
	it.Close()
	assertIdle(t, f, "a load that failed mid-stream")
}

// TestMemberLoadAllocsPerRow: a member load hands on the rows the member
// engine produced, so 2 000 rows cost about one allocation per row more
// than 20 rows (the engine's output row), whatever the column count.
// Through database/sql's boxing and scan it was about nine per row of
// eight columns.
func TestMemberLoadAllocsPerRow(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	widths := map[string]int{"wide": 8, "narrow": 2}
	var script []string
	for table, width := range widths {
		cols := []string{"id BIGINT PRIMARY KEY"}
		for i := 1; i < width; i++ {
			cols = append(cols, fmt.Sprintf("v%d DOUBLE", i))
		}
		script = append(script, "CREATE TABLE "+table+" ("+strings.Join(cols, ", ")+")")
	}
	f := federate(t, member{"allocm", sqlengine.DialectMySQL, strings.Join(script, "; ")})
	e, _ := sqldriver.LookupEngine("allocm")
	for table, width := range widths {
		rows := make([]sqlengine.Row, 2000)
		for i := range rows {
			rows[i] = sqlengine.Row{sqlengine.NewInt(int64(i))}
			for len(rows[i]) < width {
				rows[i] = append(rows[i], sqlengine.NewFloat(float64(i)/3))
			}
		}
		if _, err := e.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	load := func(table string, n int) float64 {
		sqlText := fmt.Sprintf("SELECT * FROM %s WHERE id < %d", table, n)
		return testing.AllocsPerRun(20, func() {
			it, err := f.runOnSourceStreamCtx(ctx, "allocm", sqlText, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				if _, err := it.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				got++
			}
			it.Close()
			if got != n {
				t.Fatalf("%s: %d rows, want %d", sqlText, got, n)
			}
		})
	}
	for _, table := range []string{"wide", "narrow"} {
		small, large := load(table, 20), load(table, 2000)
		perRow := (large - small) / 1980
		t.Logf("%s: %.0f allocations for 20 rows, %.0f for 2 000: %.2f per extra row", table, small, large, perRow)
		if perRow > 1.1 {
			t.Errorf("%s: %.2f allocations per row, want at most 1.1", table, perRow)
		}
	}
	assertIdle(t, f, "the loads")
}
