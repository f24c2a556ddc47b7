package dataaccess

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// ---- a deliberately slow database/sql driver ----

// slowDriver backs a source whose every query blocks for delay (default:
// effectively forever) unless its context is cancelled first. started and
// cancelled let tests observe that a query reached the backend and that
// cancellation actually propagated there.
type slowDriver struct {
	delay     time.Duration
	started   chan struct{}
	cancelled chan struct{}
	queries   atomic.Int64
}

func newSlowDriver(delay time.Duration) *slowDriver {
	return &slowDriver{
		delay:     delay,
		started:   make(chan struct{}, 64),
		cancelled: make(chan struct{}, 64),
	}
}

func (d *slowDriver) Open(string) (driver.Conn, error) { return &slowConn{d: d}, nil }

type slowConn struct{ d *slowDriver }

func (c *slowConn) Prepare(string) (driver.Stmt, error) {
	return nil, errors.New("slowdrv: prepare unsupported")
}
func (c *slowConn) Close() error              { return nil }
func (c *slowConn) Begin() (driver.Tx, error) { return nil, errors.New("slowdrv: no transactions") }

func (c *slowConn) QueryContext(ctx context.Context, _ string, _ []driver.NamedValue) (driver.Rows, error) {
	c.d.queries.Add(1)
	select {
	case c.d.started <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		select {
		case c.d.cancelled <- struct{}{}:
		default:
		}
		return nil, ctx.Err()
	case <-time.After(c.d.delay):
		return &slowRows{}, nil
	}
}

type slowRows struct{ served bool }

func (r *slowRows) Columns() []string { return []string{"a"} }
func (r *slowRows) Close() error      { return nil }
func (r *slowRows) Next(dest []driver.Value) error {
	if r.served {
		return io.EOF
	}
	r.served = true
	dest[0] = int64(1)
	return nil
}

var slowDriverSeq atomic.Int64

// registerSlowSource registers a fresh slow driver under a unique name
// (database/sql driver registration is global and permanent) and returns
// the driver plus a ready-to-add SourceRef/LowerSpec pair exposing one
// logical table "slow_t"(a INTEGER).
func registerSlowSource(delay time.Duration) (*slowDriver, xspec.SourceRef, *xspec.LowerSpec) {
	d := newSlowDriver(delay)
	name := fmt.Sprintf("slowdrv%d", slowDriverSeq.Add(1))
	sql.Register(name, d)
	ref := xspec.SourceRef{Name: "slow_src_" + name, URL: "slow://" + name, Driver: name}
	spec := &xspec.LowerSpec{
		Name:    ref.Name,
		Dialect: "ansi",
		Tables: []xspec.TableSpec{{
			Name: "slow_t", Logical: "slow_t",
			Columns: []xspec.ColumnSpec{{Name: "a", Logical: "a", Kind: "INTEGER"}},
		}},
	}
	return d, ref, spec
}

// TestQueryContextDeadlineLocal proves the acceptance criterion for the
// Unity route: a query against a deliberately slow source returns
// promptly with a context error when the caller's deadline expires, the
// backend observes the cancellation, and no goroutines leak.
func TestQueryContextDeadlineLocal(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	s := New(Config{Name: "jc-slow"})
	defer s.Close()
	d, ref, spec := registerSlowSource(time.Hour)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := s.QueryContext(ctx, "SELECT a FROM slow_t")
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("query took %s, want prompt return at the ~60ms deadline", elapsed)
	}
	select {
	case <-d.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never observed the cancellation")
	}
	// Close now (the deferred Close becomes a no-op) so the leak check
	// sees only goroutines the abandoned query itself stranded, not the
	// sql.DB pool machinery that lives until Close.
	s.Close()
	checkLeaks()
}

// TestQueryContextCancelMidQuery cancels (rather than times out) the
// caller once the backend has demonstrably started executing.
func TestQueryContextCancelMidQuery(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	s := New(Config{Name: "jc-slow-cancel"})
	defer s.Close()
	d, ref, spec := registerSlowSource(time.Hour)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-d.started
		cancel()
	}()
	_, err := s.QueryContext(ctx, "SELECT a FROM slow_t")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	select {
	case <-d.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("backend never observed the cancellation")
	}
	s.Close()
	checkLeaks()
}

// TestQueryContextRALRoute proves the POOL-RAL route rejects work under an
// already-dead context: the sql.Conn checkout observes ctx before any
// statement runs.
func TestQueryContextRALRoute(t *testing.T) {
	s := New(Config{Name: "jc-ral-ctx"})
	defer s.Close()
	_, mySpec := mkMart(t, "mart_ctx_my", sqlengine.DialectMySQL, "events", 8)
	addMart(t, s, "mart_ctx_my", mySpec, "gridsql-mysql")

	// Sanity: the live-context form of this query takes the RAL route.
	qr, err := s.QueryContext(context.Background(), "SELECT event_id FROM events WHERE run = 101")
	if err != nil || qr.Route != RoutePOOLRAL {
		t.Fatalf("warmup: route=%v err=%v, want pool-ral", qr.Route, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, "SELECT event_id FROM events WHERE run = 100"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RAL route err = %v, want canceled", err)
	}
}

// TestQueryContextRemoteForward runs the full edge-to-backend chain: jc1
// forwards to jc2 (found via the RLS), jc2's backend is slow, and jc1's
// caller gives up. The forward HTTP request must abort promptly, and jc2
// — seeing the disconnect — must cancel its own backend query.
func TestQueryContextRemoteForward(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()

	mk := func(name string) (*Service, *clarens.Server) {
		svc, srv, _, err := Start(Config{Name: name, Open: true, RLS: rls.NewClient(rlsURL)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); svc.Close() })
		return svc, srv
	}
	jc1, srv1 := mk("jc1-fwd")
	jc2, srv2 := mk("jc2-fwd")

	d, ref, spec := registerSlowSource(time.Hour)
	if err := jc2.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = jc1.QueryContext(ctx, "SELECT a FROM slow_t")
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("forwarded query took %s, want prompt return", elapsed)
	}
	// The remote server saw the disconnect and cancelled its backend.
	select {
	case <-d.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("remote backend never observed the cancellation")
	}
	// Tear everything down (the registered cleanups become no-ops), then
	// flush keep-alive conns so only genuine leaks remain.
	srv1.Close()
	srv2.Close()
	jc1.Close()
	jc2.Close()
	catalog.Close()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	checkLeaks()
}

// TestCacheFollowerAbandon proves the qcache singleflight semantics at the
// service level: one follower abandoning a coalesced wait neither
// cancels the leader's computation nor corrupts the cached result.
func TestCacheFollowerAbandon(t *testing.T) {
	s := New(Config{Name: "jc-cache-ctx", CacheSize: 32})
	defer s.Close()
	d, ref, spec := registerSlowSource(300 * time.Millisecond)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.QueryContext(context.Background(), "SELECT a FROM slow_t")
		leaderDone <- err
	}()
	<-d.started // the leader's computation is executing

	// A follower joins the same query, then gives up almost immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.QueryContext(ctx, "SELECT a FROM slow_t"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want deadline exceeded", err)
	}

	// The leader must complete unharmed and populate the cache.
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v (follower abandonment must not cancel the shared computation)", err)
	}
	queriesBefore := d.queries.Load()
	qr, err := s.QueryContext(context.Background(), "SELECT a FROM slow_t")
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0].Int != 1 {
		t.Fatalf("cached rows: %v", qr.Rows)
	}
	if d.queries.Load() != queriesBefore {
		t.Fatal("repeat query hit the backend; leader result was not cached")
	}
}

// TestCacheLastWaiterCancelsComputation: when every caller has abandoned a
// coalesced query, the shared computation itself is cancelled so the slow
// backend is not left doing unwanted work.
func TestCacheLastWaiterCancelsComputation(t *testing.T) {
	s := New(Config{Name: "jc-cache-last", CacheSize: 32})
	defer s.Close()
	d, ref, spec := registerSlowSource(time.Hour)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-d.started
		cancel()
	}()
	if _, err := s.QueryContext(ctx, "SELECT a FROM slow_t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	select {
	case <-d.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned computation was never cancelled at the backend")
	}
}
