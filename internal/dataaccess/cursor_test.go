package dataaccess

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// ---- a lazy, counting row producer ----

// pagedDriver serves `total` generated rows one at a time, counting how
// many the database/sql layer actually pulled — the probe that proves the
// cursor path never materializes a scan. With blockAfter >= 0 the
// (blockAfter+1)-th row blocks until the query's context is cancelled,
// emulating a backend mid-scan stall.
type pagedDriver struct {
	total      int
	blockAfter int // -1: never block
	served     atomic.Int64
	blocked    chan struct{} // signalled when a Next starts blocking
	cancelled  atomic.Int64  // queries that observed ctx cancellation
	rowsClosed atomic.Int64  // driver.Rows closed (resources released)
	onClose    func()        // when set, runs as a driver.Rows closes
}

func newPagedDriver(total, blockAfter int) *pagedDriver {
	return &pagedDriver{total: total, blockAfter: blockAfter, blocked: make(chan struct{}, 16)}
}

func (d *pagedDriver) Open(string) (driver.Conn, error) { return &pagedConn{d: d}, nil }

type pagedConn struct{ d *pagedDriver }

func (c *pagedConn) Prepare(string) (driver.Stmt, error) {
	return nil, errors.New("pageddrv: prepare unsupported")
}
func (c *pagedConn) Close() error              { return nil }
func (c *pagedConn) Begin() (driver.Tx, error) { return nil, errors.New("pageddrv: no transactions") }

func (c *pagedConn) QueryContext(ctx context.Context, _ string, _ []driver.NamedValue) (driver.Rows, error) {
	return &pagedRows{d: c.d, ctx: ctx}, nil
}

type pagedRows struct {
	d   *pagedDriver
	ctx context.Context
	i   int
}

func (r *pagedRows) Columns() []string { return []string{"a"} }
func (r *pagedRows) Close() error {
	if r.d.onClose != nil {
		r.d.onClose()
	}
	r.d.rowsClosed.Add(1)
	return nil
}

func (r *pagedRows) Next(dest []driver.Value) error {
	if r.d.blockAfter >= 0 && r.i == r.d.blockAfter {
		select {
		case r.d.blocked <- struct{}{}:
		default:
		}
		<-r.ctx.Done()
		r.d.cancelled.Add(1)
		return r.ctx.Err()
	}
	if r.i >= r.d.total {
		return io.EOF
	}
	dest[0] = int64(r.i)
	r.i++
	r.d.served.Add(1)
	return nil
}

var pagedDriverSeq atomic.Int64

// registerPagedSource registers a fresh paged driver under a unique name
// and returns it plus a SourceRef/LowerSpec pair exposing the logical
// table "paged_t"(a INTEGER).
func registerPagedSource(total, blockAfter int) (*pagedDriver, xspec.SourceRef, *xspec.LowerSpec) {
	d := newPagedDriver(total, blockAfter)
	name := fmt.Sprintf("pageddrv%d", pagedDriverSeq.Add(1))
	sql.Register(name, d)
	ref := xspec.SourceRef{Name: "paged_src_" + name, URL: "paged://" + name, Driver: name}
	spec := &xspec.LowerSpec{
		Name:    ref.Name,
		Dialect: "ansi",
		Tables: []xspec.TableSpec{{
			Name: "paged_t", Logical: "paged_t",
			Columns: []xspec.ColumnSpec{{Name: "a", Logical: "a", Kind: "INTEGER"}},
		}},
	}
	return d, ref, spec
}

// TestCursorLifecycle walks the whole open -> fetch -> close protocol on a
// real mart: chunk sizes are respected, the terminal chunk reports done,
// fetching past the end stays done instead of erroring, and double-close
// is a no-op.
func TestCursorLifecycle(t *testing.T) {
	s := New(Config{Name: "jc-cursor"})
	defer s.Close()
	_, spec := mkMart(t, "cur_mart", sqlengine.DialectMySQL, "events", 10)
	addMart(t, s, "cur_mart", spec, "gridsql-mysql")

	info, err := s.OpenCursor(context.Background(), "SELECT event_id FROM events ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Columns) != 1 || !strings.EqualFold(info.Columns[0], "event_id") {
		t.Fatalf("columns = %v", info.Columns)
	}
	if s.CursorCount() != 1 {
		t.Fatalf("cursor count = %d, want 1", s.CursorCount())
	}

	var got []int64
	for i := 0; i < 2; i++ {
		rows, done, err := s.FetchCursor(info.ID, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 || done {
			t.Fatalf("chunk %d: %d rows done=%v, want 4 rows not done", i, len(rows), done)
		}
		for _, r := range rows {
			got = append(got, r[0].Int)
		}
	}
	rows, done, err := s.FetchCursor(info.ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || !done {
		t.Fatalf("final chunk: %d rows done=%v, want 2 rows done", len(rows), done)
	}
	for _, r := range rows {
		got = append(got, r[0].Int)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("row order: got %v", got)
		}
	}

	// Fetch past the end: empty, still done, not an error.
	rows, done, err = s.FetchCursor(info.ID, 4)
	if err != nil || len(rows) != 0 || !done {
		t.Fatalf("past-end fetch: rows=%d done=%v err=%v", len(rows), done, err)
	}

	if !s.CloseCursor(info.ID) {
		t.Fatal("close reported the cursor missing")
	}
	if s.CloseCursor(info.ID) {
		t.Fatal("double-close reported the cursor still present")
	}
	if s.CursorCount() != 0 {
		t.Fatalf("cursor count after close = %d", s.CursorCount())
	}
	if _, _, err := s.FetchCursor(info.ID, 1); err == nil {
		t.Fatal("fetch after close should error")
	}
}

// TestCursorBoundedPull is the acceptance criterion for server memory and
// time to first row: whatever stands between the consumer and a large
// scan — a local cursor, a cursor relay to the server that hosts it, a
// pipelined join probing it — pulls the source as the consumer reads and
// never materializes it. The counting source makes that exact: once the
// consumer holds its first rows the source has served a bounded number,
// the same at 2 000 rows as at 20 000, where the materializing reference
// of the same query (the whole-result forward, the scratch integrator)
// serves every row before it answers.
func TestCursorBoundedPull(t *testing.T) {
	const relayFetch = 64
	forward := func(p *relayPair, sql string) error {
		_, err := p.fwd.QueryContext(context.Background(), sql)
		return err
	}
	scratch := func(p *relayPair, sql string) error {
		plan, err := p.fwd.fed.PlanQuery(sql)
		if err != nil {
			return err
		}
		_, err = p.fwd.fed.ExecuteContext(context.Background(), plan)
		return err
	}
	cases := []struct {
		name      string
		sql       string
		remote    bool // the scan lives on the peer: fwd relays host's cursor
		fetches   int
		fetchSize int
		// bound is the most the source may have served once the fetches
		// returned: what the consumer holds plus one look-ahead row. The
		// relay holds one relay page instead; the join's first output row
		// is its second probe row (bp_dim's ids start at 1, paged_t's at 0).
		bound     int64
		reference func(p *relayPair, sql string) error
	}{
		{name: "local cursor", sql: "SELECT a FROM paged_t", fetches: 3, fetchSize: 50, bound: 3*50 + 1},
		{name: "relay", sql: "SELECT a FROM paged_t", remote: true, fetches: 1, fetchSize: 10,
			bound: relayFetch + 1, reference: forward},
		{name: "join probe side", sql: "SELECT p.a, e.e_tot FROM paged_t p JOIN bp_dim e ON p.a = e.event_id",
			fetches: 1, fetchSize: 1, bound: 2 + 1, reference: scratch},
	}
	for i, tc := range cases {
		for _, n := range []int{2000, 20000} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, n), func(t *testing.T) {
				p := newRelayPair(t, Config{Name: "bp-host"}, Config{Name: "bp-fwd", RelayFetchSize: relayFetch}, "", "", 0)
				defer p.close()
				mart := fmt.Sprintf("mart_bp_%d_%d", i, n)
				_, dimSpec := mkMart(t, mart, sqlengine.DialectMySQL, "bp_dim", 30)
				addMart(t, p.fwd, mart, dimSpec, "gridsql-mysql")
				d, ref, spec := registerPagedSource(n, -1)
				owner := p.fwd
				if tc.remote {
					owner = p.host
				}
				if err := owner.AddDatabase(ref, spec, "", ""); err != nil {
					t.Fatal(err)
				}

				info, err := p.fwd.OpenCursor(context.Background(), tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				defer p.fwd.CloseCursor(info.ID)
				for f := 0; f < tc.fetches; f++ {
					rows, done, err := p.fwd.FetchCursor(info.ID, tc.fetchSize)
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) != tc.fetchSize || done {
						t.Fatalf("chunk %d: %d rows done=%v, want %d rows not done", f, len(rows), done, tc.fetchSize)
					}
				}
				if served := d.served.Load(); served > tc.bound {
					t.Fatalf("source served %d of %d rows for %d fetched, want <= %d: the scan ran ahead of its consumer",
						served, n, tc.fetches*tc.fetchSize, tc.bound)
				}
				if !p.fwd.CloseCursor(info.ID) {
					t.Fatal("close failed")
				}
				// Closing releases the backend cursor, across the relay too.
				waitFor(t, 2*time.Second, func() bool { return d.rowsClosed.Load() == 1 })

				if tc.reference == nil {
					return
				}
				before := d.served.Load()
				if err := tc.reference(p, tc.sql); err != nil {
					t.Fatal(err)
				}
				if got := d.served.Load() - before; got != int64(n) {
					t.Fatalf("materializing reference served %d rows, want all %d", got, n)
				}
			})
		}
	}
}

// TestCursorTTLReap proves abandoned cursors are collected: an idle cursor
// past its TTL is cancelled by the janitor, its backend resources are
// released, and later fetches fail.
func TestCursorTTLReap(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	s := New(Config{Name: "jc-reap", CursorTTL: 40 * time.Millisecond})
	d, ref, spec := registerPagedSource(10000, -1)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	info, err := s.OpenCursor(context.Background(), "SELECT a FROM paged_t")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.FetchCursor(info.ID, 8); err != nil {
		t.Fatal(err)
	}
	// Abandon it: the janitor (interval TTL/2) must reap without help.
	waitFor(t, 5*time.Second, func() bool { return s.CursorCount() == 0 })
	waitFor(t, 2*time.Second, func() bool { return d.rowsClosed.Load() == 1 })
	if n := s.CursorStats().Reaped; n != 1 {
		t.Fatalf("reaped counter = %d, want 1", n)
	}
	if _, _, err := s.FetchCursor(info.ID, 1); err == nil {
		t.Fatal("fetch on a reaped cursor should error")
	}
	s.Close()
	checkLeaks()
}

// TestCursorReapCountsBeforeRelease: a reaped cursor is counted before
// its backend rows close, so whoever sees the rows closed also sees the
// reap in CursorStats. The reap is called directly, past the deadline.
func TestCursorReapCountsBeforeRelease(t *testing.T) {
	s := New(Config{Name: "jc-reapcount", CursorTTL: time.Hour})
	defer s.Close()
	d, ref, spec := registerPagedSource(100, -1)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}
	reapedAtClose := make(chan int64, 1)
	d.onClose = func() {
		select {
		case reapedAtClose <- s.CursorStats().Reaped:
		default:
		}
	}

	info, err := s.OpenCursor(context.Background(), "SELECT a FROM paged_t")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.FetchCursor(info.ID, 8); err != nil {
		t.Fatal(err)
	}
	if n := s.cursors.reap(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("reap found %d victims, want 1", n)
	}
	select {
	case n := <-reapedAtClose:
		if n < 1 {
			t.Fatalf("the backend rows closed while CursorStats().Reaped read %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the reaped cursor's backend rows never closed")
	}
}

// TestCursorCloseCancelsBlockedProducer: close must cancel the producing
// query's context even while a fetch is blocked inside the backend —
// that cancellation is exactly what unblocks the fetch.
func TestCursorCloseCancelsBlockedProducer(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	s := New(Config{Name: "jc-blockclose"})
	d, ref, spec := registerPagedSource(100, 5)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	info, err := s.OpenCursor(context.Background(), "SELECT a FROM paged_t")
	if err != nil {
		t.Fatal(err)
	}
	fetchErr := make(chan error, 1)
	go func() {
		_, _, err := s.FetchCursor(info.ID, 10) // blocks at row 6
		fetchErr <- err
	}()
	select {
	case <-d.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never reached the blocking row")
	}
	s.CloseCursor(info.ID)
	select {
	case err := <-fetchErr:
		if err == nil {
			t.Fatal("blocked fetch returned no error after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not unblock the in-flight fetch (deadlock)")
	}
	if d.cancelled.Load() != 1 {
		t.Fatalf("backend cancellations = %d, want 1", d.cancelled.Load())
	}
	s.Close()
	checkLeaks()
}

// TestQueryStreamClientDisconnect is the in-process disconnect story:
// cancelling the QueryStream context mid-iteration stops the producing
// backend query and leaks no goroutines.
func TestQueryStreamClientDisconnect(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	s := New(Config{Name: "jc-streamcancel"})
	d, ref, spec := registerPagedSource(100, 5)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sr, err := s.QueryStreamContext(ctx, "SELECT a FROM paged_t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	go func() {
		<-d.blocked
		cancel() // the consumer walks away mid-scan
	}()
	if _, err := sr.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next after disconnect = %v, want a cancellation error", err)
	}
	sr.Close()
	if d.cancelled.Load() != 1 {
		t.Fatalf("backend cancellations = %d, want 1", d.cancelled.Load())
	}
	cancel()
	s.Close()
	checkLeaks()
}

// TestCursorOverXMLRPC drives the wire protocol end to end: open/fetch/
// close through a Clarens server, including chunk decoding and the
// close-cancels-backend contract.
func TestCursorOverXMLRPC(t *testing.T) {
	s := New(Config{Name: "jc-rpc-cursor"})
	defer s.Close()
	_, spec := mkMart(t, "rpc_mart", sqlengine.DialectMySQL, "events", 9)
	addMart(t, s, "rpc_mart", spec, "gridsql-mysql")

	srv := clarens.NewServer(true)
	s.RegisterMethods(srv)
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := clarens.NewClient(url)

	res, err := c.Call("system.cursor.open", "SELECT event_id FROM events ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	m := res.(map[string]interface{})
	id, _ := m["cursor"].(string)
	if id == "" {
		t.Fatalf("open response: %v", m)
	}
	// ORDER BY is not RAL-extractable, so the scan is a Unity pushdown —
	// still a true streaming route.
	if route, _ := m["route"].(string); route != string(RouteUnity) {
		t.Fatalf("route = %q, want unity", route)
	}

	total := 0
	for {
		res, err := c.CallDecodeContext(context.Background(), "system.cursor.fetch", decodeChunk, id, int64(4))
		if err != nil {
			t.Fatal(err)
		}
		chunk := res.(*Chunk)
		if len(chunk.Rows) > 4 {
			t.Fatalf("chunk of %d rows exceeds the fetch size", len(chunk.Rows))
		}
		total += len(chunk.Rows)
		if chunk.Done {
			break
		}
	}
	if total != 9 {
		t.Fatalf("streamed %d rows, want 9", total)
	}
	closed, err := c.Call("system.cursor.close", id)
	if err != nil || closed != true {
		t.Fatalf("close = %v, %v", closed, err)
	}
	if _, err := c.Call("system.cursor.fetch", id, int64(1)); err == nil {
		t.Fatal("fetch on a closed cursor should fault")
	}
}

// TestCursorConcurrentHammer races many cursors — and many fetchers of
// one shared cursor — to give the race detector surface area and prove
// rows are neither lost nor duplicated under contention.
func TestCursorConcurrentHammer(t *testing.T) {
	s := New(Config{Name: "jc-hammer"})
	defer s.Close()
	_, spec := mkMart(t, "ham_mart", sqlengine.DialectMySQL, "events", 60)
	addMart(t, s, "ham_mart", spec, "gridsql-mysql")
	const q = "SELECT event_id FROM events ORDER BY event_id"

	// Phase 1: independent cursors from many goroutines.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 5; iter++ {
				info, err := s.OpenCursor(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(3) == 0 {
					s.CloseCursor(info.ID) // abandon early
					continue
				}
				total := 0
				for {
					n := 1 + rng.Intn(20)
					rows, done, err := s.FetchCursor(info.ID, n)
					if err != nil {
						t.Error(err)
						return
					}
					if len(rows) > n {
						t.Errorf("chunk %d > fetch size %d", len(rows), n)
						return
					}
					total += len(rows)
					if done {
						break
					}
				}
				if total != 60 {
					t.Errorf("cursor streamed %d rows, want 60", total)
				}
				s.CloseCursor(info.ID)
				s.CloseCursor(info.ID) // racy double-close must stay safe
			}
		}(int64(g))
	}
	wg.Wait()

	// Phase 2: several goroutines draining one shared cursor; every row
	// must be delivered exactly once across them.
	info, err := s.OpenCursor(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var seen sync.Map
	var total atomic.Int64
	var wg2 sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for {
				rows, done, err := s.FetchCursor(info.ID, 7)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range rows {
					if _, dup := seen.LoadOrStore(r[0].Int, true); dup {
						t.Errorf("row %d delivered twice", r[0].Int)
					}
					total.Add(1)
				}
				if done {
					return
				}
			}
		}()
	}
	wg2.Wait()
	if total.Load() != 60 {
		t.Fatalf("shared cursor delivered %d rows, want 60", total.Load())
	}
	s.CloseCursor(info.ID)
	if s.CursorCount() != 0 {
		t.Fatalf("cursors left registered: %d", s.CursorCount())
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
