package dataaccess

// Tests for the cursor-to-cursor relay: federated streams must pull pages
// off the peer lazily, fall back to plain XML (and to materialized
// forwards) for peers that lack the faster protocol layers, survive a
// peer dying mid-stream with a loud error, and release the remote cursor
// — on both the natural end of the stream and an early local close —
// without stranding goroutines on either server.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// addEngineMart registers a live engine as a mart on s (local:// DSN).
func addEngineMart(t *testing.T, s *Service, e *sqlengine.Engine) {
	t.Helper()
	sqldriver.RegisterEngine(e)
	t.Cleanup(func() { sqldriver.UnregisterEngine(e.Name()) })
	spec, err := xspec.Generate(e.Name(), e.Dialect().Name, e)
	if err != nil {
		t.Fatal(err)
	}
	addMart(t, s, e.Name(), spec, e.Dialect().DriverName)
}

// relayPair is a two-server federation testbed: host serves a mart, fwd
// hosts nothing and reaches the tables through the RLS.
type relayPair struct {
	catalog *rls.Server
	rlsURL  string
	host    *Service
	hostSrv *clarens.Server
	fwd     *Service
	fwdSrv  *clarens.Server

	closeOnce sync.Once
}

func (p *relayPair) close() {
	p.closeOnce.Do(func() {
		p.fwd.Close()
		p.fwdSrv.Close()
		p.host.Close()
		p.hostSrv.Close()
		p.catalog.Close()
	})
}

// server starts one more data access server publishing to the pair's RLS;
// the caller closes it.
func (p *relayPair) server(t *testing.T, cfg Config) (*Service, *clarens.Server) {
	t.Helper()
	cfg.RLS = rls.NewClient(p.rlsURL)
	cfg.Open = true
	svc, srv, _, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, srv
}

// newRelayPair builds the testbed; mart/table name the host's engine and
// its one table (engine registration is global, so names must be
// test-unique). With mart "" the host starts empty and the test adds its
// own sources.
func newRelayPair(t *testing.T, hostCfg, fwdCfg Config, mart, table string, rows int) *relayPair {
	t.Helper()
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &relayPair{catalog: catalog, rlsURL: rlsURL}
	p.host, p.hostSrv = p.server(t, hostCfg)
	p.fwd, p.fwdSrv = p.server(t, fwdCfg)
	if mart != "" {
		_, spec := mkMart(t, mart, sqlengine.DialectMySQL, table, rows)
		addMart(t, p.host, mart, spec, "gridsql-mysql")
	}
	return p
}

// drainStream collects a stream fully, closing it.
func drainStream(t *testing.T, sr *StreamResult) *sqlengine.ResultSet {
	t.Helper()
	rs := &sqlengine.ResultSet{Columns: sr.Columns()}
	if err := sr.ForEach(func(row sqlengine.Row) error {
		rs.Rows = append(rs.Rows, row)
		return nil
	}); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return rs
}

// TestRelayStreamsRemoteScan proves the headline behaviour: a streamed
// query whose table lives on another server rides a remote cursor page by
// page, produces exactly the rows a materialized forward would, and
// releases the remote cursor when the stream drains.
func TestRelayStreamsRemoteScan(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	const n = 1500
	p := newRelayPair(t, Config{Name: "relay-host"}, Config{Name: "relay-fwd", RelayFetchSize: 128}, "mart_relay_scan", "events", n)
	defer p.close()

	sr, err := p.fwd.QueryStreamContext(context.Background(), "SELECT event_id, run, e_tot FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Route != RouteRemote || sr.Servers != 2 {
		t.Fatalf("route=%s servers=%d, want remote/2", sr.Route, sr.Servers)
	}
	got := drainStream(t, sr)
	if len(got.Rows) != n {
		t.Fatalf("relayed %d rows, want %d", len(got.Rows), n)
	}

	// Byte-identical to the materialized forward of the same query.
	qr, err := p.fwd.QueryContext(context.Background(), "SELECT event_id, run, e_tot FROM events")
	if err != nil {
		t.Fatal(err)
	}
	want := string(sqlengine.AppendRowFrame(nil, qr.Rows))
	if string(sqlengine.AppendRowFrame(nil, got.Rows)) != want {
		t.Fatal("relayed rows differ from the materialized forward")
	}

	st := p.fwd.CursorStats()
	if st.RelayOpens != 1 {
		t.Fatalf("relay opens = %d, want 1", st.RelayOpens)
	}
	if wantFetches := int64(n/128 + 1); st.RelayFetches < wantFetches {
		t.Fatalf("relay fetches = %d, want >= %d (pages of 128)", st.RelayFetches, wantFetches)
	}
	if st.RelayRows != n {
		t.Fatalf("relay rows = %d, want %d", st.RelayRows, n)
	}
	// The drained relay closed the remote cursor without waiting for TTL.
	waitFor(t, 2*time.Second, func() bool { return p.host.CursorCount() == 0 })

	p.close()
	checkLeaks()
}

// TestRelayPlainXMLPeer proves the first fallback tier: a peer that does
// not speak the binary row codec (system.cursor.fetchb unregistered) is
// relayed over plain system.cursor.fetch, transparently.
func TestRelayPlainXMLPeer(t *testing.T) {
	const n = 300
	p := newRelayPair(t, Config{Name: "plain-host", DisableBinRows: true}, Config{Name: "plain-fwd", RelayFetchSize: 64}, "mart_relay_plain", "events", n)
	defer p.close()

	sr, err := p.fwd.QueryStreamContext(context.Background(), "SELECT event_id, run, e_tot FROM events")
	if err != nil {
		t.Fatal(err)
	}
	got := drainStream(t, sr)
	if len(got.Rows) != n {
		t.Fatalf("relayed %d rows, want %d", len(got.Rows), n)
	}
	st := p.fwd.CursorStats()
	if st.RelayOpens != 1 || st.RelayRows != n {
		t.Fatalf("relay counters opens=%d rows=%d, want 1/%d", st.RelayOpens, st.RelayRows, n)
	}
	// The capability probe resolved the downgrade before the first fetch;
	// no mid-stream fallback was needed.
	if st.RelayFallbacks != 0 {
		t.Fatalf("relay fallbacks = %d, want 0 (probe should pre-empt)", st.RelayFallbacks)
	}
	waitFor(t, 2*time.Second, func() bool { return p.host.CursorCount() == 0 })
}

// TestRelayPeerWithoutCursorProtocol proves the second fallback tier: a
// peer that predates the cursor methods entirely (only dataaccess.query)
// still answers streamed queries — through a materialized forward that
// then streams from the forwarder's memory.
func TestRelayPeerWithoutCursorProtocol(t *testing.T) {
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()

	// A hand-built "legacy" peer: one query method, no cursors, no
	// capabilities, backed by a real local service.
	legacy := New(Config{Name: "legacy-core"})
	defer legacy.Close()
	const n = 120
	_, spec := mkMart(t, "mart_relay_legacy", sqlengine.DialectMySQL, "events", n)
	addMart(t, legacy, "mart_relay_legacy", spec, "gridsql-mysql")
	legacySrv := clarens.NewServer(true)
	legacySrv.Register("dataaccess.query", func(ctx context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		sqlText, _ := args[0].(string)
		qr, err := legacy.QueryContext(ctx, sqlText)
		if err != nil {
			return nil, err
		}
		return boxedResult(qr.ResultSet), nil
	})
	legacyURL, err := legacySrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer legacySrv.Close()
	if err := rls.NewClient(rlsURL).Publish(legacyURL, []string{"events"}); err != nil {
		t.Fatal(err)
	}

	fwd := New(Config{Name: "legacy-fwd", RLS: rls.NewClient(rlsURL)})
	defer fwd.Close()
	sr, err := fwd.QueryStreamContext(context.Background(), "SELECT event_id, run, e_tot FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Route != RouteRemote {
		t.Fatalf("route = %s, want remote", sr.Route)
	}
	got := drainStream(t, sr)
	if len(got.Rows) != n {
		t.Fatalf("streamed %d rows, want %d", len(got.Rows), n)
	}
	if st := fwd.CursorStats(); st.RelayOpens != 0 {
		t.Fatalf("relay opens = %d, want 0 (peer has no cursor methods)", st.RelayOpens)
	}
}

// TestRelayMidStreamPeerDeath proves a dying peer surfaces as a loud,
// prompt error — never silent truncation — and that closing the broken
// stream does not hang or strand goroutines.
func TestRelayMidStreamPeerDeath(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	const n = 1000
	p := newRelayPair(t, Config{Name: "death-host"}, Config{Name: "death-fwd", RelayFetchSize: 64}, "mart_relay_death", "events", n)
	defer p.close()

	sr, err := p.fwd.QueryStreamContext(context.Background(), "SELECT event_id, run, e_tot FROM events")
	if err != nil {
		t.Fatal(err)
	}
	// Consume the first page, then kill the peer's front end.
	for i := 0; i < 64; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	p.hostSrv.Close()
	var ferr error
	for i := 0; i < n; i++ {
		if _, ferr = sr.Next(); ferr != nil {
			break
		}
	}
	if ferr == nil || ferr == io.EOF {
		t.Fatalf("Next after peer death = %v, want a transport error", ferr)
	}
	// The error is terminal and sticky.
	if _, err := sr.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next after terminal error = %v, want the error again", err)
	}
	done := make(chan struct{})
	go func() { sr.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung against a dead peer")
	}

	p.close()
	checkLeaks()
}

// TestRelayCloseReleasesRemoteCursor proves an early local close tears
// down the whole chain: the peer's cursor disappears (producing query
// cancelled) well before any TTL, and no goroutines are stranded.
func TestRelayCloseReleasesRemoteCursor(t *testing.T) {
	checkLeaks := leaktest.Check(t)
	const n = 5000
	p := newRelayPair(t, Config{Name: "close-host"}, Config{Name: "close-fwd", RelayFetchSize: 32}, "mart_relay_close", "events", n)
	defer p.close()

	sr, err := p.fwd.QueryStreamContext(context.Background(), "SELECT event_id, run, e_tot FROM events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if p.host.CursorCount() != 1 {
		t.Fatalf("host cursors = %d, want 1 mid-stream", p.host.CursorCount())
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return p.host.CursorCount() == 0 })

	p.close()
	checkLeaks()
}

// TestRelayChainedCursors proves the bound composes across hops: a client
// paging a cursor on the forwarder drives a relay that pages a cursor on
// the host, and closing the client's cursor releases both.
func TestRelayChainedCursors(t *testing.T) {
	const n = 800
	p := newRelayPair(t, Config{Name: "chain-host"}, Config{Name: "chain-fwd", RelayFetchSize: 64}, "mart_relay_chain", "events", n)
	defer p.close()

	info, err := p.fwd.OpenCursor(context.Background(), "SELECT event_id, run, e_tot FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if info.Route != RouteRemote {
		t.Fatalf("route = %s, want remote", info.Route)
	}
	rows, done, err := p.fwd.FetchCursor(info.ID, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 || done {
		t.Fatalf("first page: %d rows done=%v, want 50/false", len(rows), done)
	}
	if p.host.CursorCount() != 1 {
		t.Fatalf("host cursors = %d, want 1 while the chain is live", p.host.CursorCount())
	}
	if !p.fwd.CloseCursor(info.ID) {
		t.Fatal("close failed")
	}
	waitFor(t, 2*time.Second, func() bool { return p.host.CursorCount() == 0 })
	waitFor(t, 2*time.Second, func() bool { return p.fwd.CursorCount() == 0 })
}

// TestRelaySourceBudget proves the per-source budget reaches the relay
// path: a remote source that blocks forever is cut off after the budget
// instead of consuming the caller's whole allowance.
func TestRelaySourceBudget(t *testing.T) {
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()

	host := New(Config{Name: "budget-host", RLS: rls.NewClient(rlsURL)})
	defer host.Close()
	d, ref, spec := registerSlowSource(time.Hour)
	if err := host.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}
	hostSrv := clarens.NewServer(true)
	host.RegisterMethods(hostSrv)
	hostURL, err := hostSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hostSrv.Close()
	host.SetURL(hostURL)
	if err := rls.NewClient(rlsURL).Publish(hostURL, []string{"slow_t"}); err != nil {
		t.Fatal(err)
	}

	fwd := New(Config{Name: "budget-fwd", RLS: rls.NewClient(rlsURL), SourceBudget: 150 * time.Millisecond})
	defer fwd.Close()
	start := time.Now()
	sr, err := fwd.QueryStreamContext(context.Background(), "SELECT a FROM slow_t")
	if err == nil {
		_, err = sr.Next()
		sr.Close()
	}
	if err == nil {
		t.Fatal("stream against a stuck source succeeded, want a budget cut-off")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget cut-off took %s, want ~150ms", elapsed)
	}
	// The host's backend observed the cancellation (the cursor open's
	// producing query died with the aborted request or its own release).
	select {
	case <-d.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("remote backend never observed the cancellation")
	}
}

// TestRelayMixedDeadPeerError proves a mixed query against an
// unreachable remote peer fails with the real transport error, not a
// misleading "produced no columns" (the lazy relay open is forced before
// column inference gives up).
func TestRelayMixedDeadPeerError(t *testing.T) {
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()
	// Publish a server that is not listening.
	if err := rls.NewClient(rlsURL).Publish("http://127.0.0.1:1", []string{"dead_t"}); err != nil {
		t.Fatal(err)
	}
	jc := New(Config{Name: "deadpeer", RLS: rls.NewClient(rlsURL)})
	defer jc.Close()
	_, evSpec := mkMart(t, "mart_deadpeer", sqlengine.DialectMySQL, "live_t", 5)
	addMart(t, jc, "mart_deadpeer", evSpec, "gridsql-mysql")

	_, err = jc.QueryContext(context.Background(), "SELECT l.event_id FROM live_t l JOIN dead_t d ON l.run = d.run")
	if err == nil {
		t.Fatal("query against a dead peer succeeded")
	}
	if strings.Contains(err.Error(), "produced no columns") {
		t.Fatalf("transport failure masked as a column error: %v", err)
	}
}

// TestRelayMixedIntegration proves the mixed path: a join between a local
// and a remote table streams the remote side through a relay into the
// integration engine and still produces the right answer.
func TestRelayMixedIntegration(t *testing.T) {
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
		return svc, srv
	}
	jc1, srv1 := mk("mixed-1")
	defer func() { jc1.Close(); srv1.Close() }()
	jc2, srv2 := mk("mixed-2")
	defer func() { jc2.Close(); srv2.Close() }()

	_, evSpec := mkMart(t, "mart_mixed_events", sqlengine.DialectMySQL, "relay_events", 40)
	addMart(t, jc1, "mart_mixed_events", evSpec, "gridsql-mysql")
	runs := sqlengine.NewEngine("mart_mixed_runs", sqlengine.DialectMySQL)
	if _, err := runs.Exec("CREATE TABLE `runsmeta` (`run` BIGINT PRIMARY KEY, `site` VARCHAR(16))"); err != nil {
		t.Fatal(err)
	}
	for i, site := range map[int]string{100: "tier1", 101: "tier2"} {
		if _, err := runs.Exec(fmt.Sprintf("INSERT INTO `runsmeta` VALUES (%d, '%s')", i, site)); err != nil {
			t.Fatal(err)
		}
	}
	addEngineMart(t, jc2, runs)

	qr, err := jc1.QueryContext(context.Background(), "SELECT e.event_id, r.site FROM relay_events e JOIN runsmeta r ON e.run = r.run WHERE r.site = 'tier1'")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteMixed || qr.Servers != 2 {
		t.Fatalf("route=%s servers=%d, want mixed/2", qr.Route, qr.Servers)
	}
	if len(qr.Rows) != 20 {
		t.Fatalf("join returned %d rows, want 20 (run 100 half)", len(qr.Rows))
	}
	// The remote side travelled as a relay, not a materialized forward.
	if st := jc1.CursorStats(); st.RelayOpens != 1 {
		t.Fatalf("relay opens = %d, want 1 (runsmeta fetched via relay)", st.RelayOpens)
	}
	waitFor(t, 2*time.Second, func() bool { return jc2.CursorCount() == 0 })
}

// raggedPeer is a hand-built peer that serves a table whose second row is
// one cell short, over the plain XML row codec or the binary frame; its
// cursor opens send openCols as "columns" (nil: the table's three names). It
// counts the binary-frame calls (queryb, fetchb) and system.cursor.close
// calls it received.
type raggedPeer struct {
	url              string
	binCalls, closed atomic.Int32
}

func newRaggedPeer(t *testing.T, binary bool, openCols interface{}) (*raggedPeer, *clarens.Server) {
	t.Helper()
	p := &raggedPeer{}
	rs := &sqlengine.ResultSet{
		Columns: []string{"event_id", "run", "e_tot"},
		Rows: []sqlengine.Row{
			{sqlengine.NewInt(1), sqlengine.NewInt(101), sqlengine.NewFloat(1.5)},
			{sqlengine.NewInt(2), sqlengine.NewInt(101)},
		},
	}
	codec := int64(0)
	if binary {
		codec = RowCodecVersion
	}
	if openCols == nil {
		openCols = []interface{}{"event_id", "run", "e_tot"}
	}
	srv := clarens.NewServer(true)
	srv.Register("system.capabilities", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
		return map[string]interface{}{"rowcodec": codec}, nil
	})
	srv.Register("dataaccess.query", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
		return WireResult(rs), nil
	})
	srv.Register("system.cursor.open", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
		return map[string]interface{}{"cursor": "c1", "columns": openCols}, nil
	})
	srv.Register("system.cursor.fetch", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
		return WireChunk(rs.Rows, false), nil
	})
	if binary {
		srv.Register("dataaccess.queryb", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
			p.binCalls.Add(1)
			return wireResultBinary(rs), nil
		})
		srv.Register("system.cursor.fetchb", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
			p.binCalls.Add(1)
			return wireChunkBinary(rs.Rows, false), nil
		})
	}
	srv.Register("system.cursor.close", func(context.Context, *clarens.CallContext, []interface{}) (interface{}, error) {
		p.closed.Add(1)
		return true, nil
	})
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.url = url
	return p, srv
}

// TestRaggedRowsAreProtocolErrors: a peer whose rows do not have one cell
// per column fails the forward (DecodeResultFrom) and the relay
// (relayIter.Next) with a protocol error naming the peer, under either row
// codec — never handing wrong-shape rows to operators that index cells by
// position — and the failed relay still closes the peer's cursor and
// strands nothing. A cursor open whose column list is missing, empty or
// holds a non-string fails the stream the same way and releases the cursor
// it opened; an empty name (an empty-string literal column's) is a name.
func TestRaggedRowsAreProtocolErrors(t *testing.T) {
	const q = "SELECT event_id, run, e_tot FROM events"
	// setup publishes a ragged peer in a fresh catalog and returns a
	// forwarding server that finds it there, plus the teardown.
	setup := func(t *testing.T, name string, binary bool, openCols interface{}) (*raggedPeer, *Service, func()) {
		checkLeaks := leaktest.Check(t)
		catalog := rls.NewServer(0)
		rlsURL, err := catalog.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peer, peerSrv := newRaggedPeer(t, binary, openCols)
		if err := rls.NewClient(rlsURL).Publish(peer.url, []string{"events"}); err != nil {
			t.Fatal(err)
		}
		fwd := New(Config{Name: "ragged-fwd-" + name, RLS: rls.NewClient(rlsURL)})
		return peer, fwd, func() {
			fwd.Close()
			peerSrv.Close()
			catalog.Close()
			checkLeaks()
		}
	}
	// wantErr requires a protocol error that names the peer and says what.
	wantErr := func(t *testing.T, err error, peer *raggedPeer, what string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "protocol error: "+what) || !strings.Contains(err.Error(), peer.url) {
			t.Fatalf("err = %v, want a protocol error %q naming %s", err, what, peer.url)
		}
	}
	for _, binary := range []bool{false, true} {
		name := "xml"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) {
			peer, fwd, teardown := setup(t, name, binary, nil)
			const ragged = "row 1 has 2 cells for 3 columns"
			_, err := fwd.QueryContext(context.Background(), q)
			wantErr(t, err, peer, ragged)

			sr, err := fwd.QueryStreamContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			var nerr error
			for i := 0; i < 3 && nerr == nil; i++ {
				_, nerr = sr.Next()
			}
			wantErr(t, nerr, peer, ragged)
			if err := sr.Close(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return peer.closed.Load() == 1 })
			if got, want := peer.binCalls.Load(), map[bool]int32{false: 0, true: 2}[binary]; got != want {
				t.Fatalf("binary-frame calls = %d, want %d (queryb + fetchb only when negotiated)", got, want)
			}
			teardown()
		})
	}
	for _, tc := range []struct {
		name     string
		openCols interface{}
		what     string
	}{
		{"non-string", []interface{}{int64(7), "run", "e_tot"}, "column 0 is int64 7, want a name"},
		{"empty-list", []interface{}{}, "the cursor describes no columns"},
		{"not-a-list", "event_id", "the cursor describes no columns"},
	} {
		t.Run("columns-"+tc.name, func(t *testing.T) {
			peer, fwd, teardown := setup(t, "columns-"+tc.name, false, tc.openCols)
			sr, err := fwd.QueryStreamContext(context.Background(), q)
			if err == nil {
				_, err = sr.Next()
				sr.Close()
			}
			wantErr(t, err, peer, tc.what)
			waitFor(t, 2*time.Second, func() bool { return peer.closed.Load() == 1 })
			teardown()
		})
	}
	t.Run("columns-empty-name", func(t *testing.T) {
		peer, fwd, teardown := setup(t, "columns-empty-name", false, []interface{}{"", "run", "e_tot"})
		sr, err := fwd.QueryStreamContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(sr.Columns(), ","); got != ",run,e_tot" {
			t.Fatalf("columns = %q, want the peer's names with the empty one kept", got)
		}
		sr.Close()
		waitFor(t, 2*time.Second, func() bool { return peer.closed.Load() == 1 })
		teardown()
	})
}
