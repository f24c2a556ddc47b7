package dataaccess

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqlengine"
)

// allKindsRows exercises every sqlengine.Value kind, including edge
// payloads (empty string/bytes, negative and extreme numbers, sub-second
// timestamps); FuzzRowFrame seeds its frame-decoder leg with their frame.
func allKindsRows() []sqlengine.Row {
	return []sqlengine.Row{
		{
			sqlengine.Null(),
			sqlengine.NewInt(0),
			sqlengine.NewInt(-1),
			sqlengine.NewInt(math.MaxInt64),
			sqlengine.NewInt(math.MinInt64),
		},
		{
			sqlengine.NewFloat(0),
			sqlengine.NewFloat(-2.718281828),
			sqlengine.NewFloat(math.MaxFloat64),
			sqlengine.NewFloat(math.SmallestNonzeroFloat64),
			sqlengine.NewFloat(math.Inf(-1)),
		},
		{
			sqlengine.NewString(""),
			sqlengine.NewString("plain"),
			sqlengine.NewString("<&> \"esc\"\r\n\tütf✓"),
			sqlengine.NewBool(true),
			sqlengine.NewBool(false),
		},
		{
			sqlengine.NewTime(time.Date(2005, 6, 15, 12, 30, 45, 123456789, time.UTC)),
			sqlengine.NewTime(time.Unix(0, 0).UTC()),
			sqlengine.NewBytes(nil),
			sqlengine.NewBytes([]byte{0, 1, 2, 254, 255}),
			sqlengine.Null(),
		},
		{}, // empty row
	}
}

// identical reports whether two values have the same kind and payload:
// floats by their bits, times to the nanosecond.
func identical(a, b sqlengine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqlengine.KindInt:
		return a.Int == b.Int
	case sqlengine.KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case sqlengine.KindTime:
		return a.Time().Equal(b.Time())
	}
	return a.Bool() == b.Bool() && a.Str() == b.Str()
}

// identicalRows is identical over whole row sets.
func identicalRows(a, b []sqlengine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !identical(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestWireResultMatchesBoxed: the zero-boxing XML payload renders byte-
// identically to the boxed form a generic client library renders (struct
// members sorted on both), so third-party decoders cannot tell them apart.
func TestWireResultMatchesBoxed(t *testing.T) {
	rs := &sqlengine.ResultSet{
		Columns: []string{"a", "b", "c"},
		Rows: []sqlengine.Row{
			{sqlengine.NewInt(1), sqlengine.NewString("x<&>"), sqlengine.NewFloat(2.5)},
			{sqlengine.Null(), sqlengine.NewBool(true), sqlengine.NewBytes([]byte{1, 2})},
			{sqlengine.NewTime(time.Date(2005, 6, 15, 12, 0, 0, 0, time.UTC)), sqlengine.NewInt(-7), sqlengine.NewString("")},
		},
	}
	fast, err := clarens.MarshalResponse(WireResult(rs))
	if err != nil {
		t.Fatal(err)
	}
	boxed, err := clarens.MarshalResponse(boxedResult(rs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, boxed) {
		t.Fatalf("wire documents differ:\n fast:  %s\n boxed: %s", fast, boxed)
	}

	// And the streaming decoder reads the document back into the source
	// result set: every kind here survives XML-RPC exactly.
	res, err := clarens.DecodeResponse(bytes.NewReader(fast), decodeResult)
	if err != nil {
		t.Fatal(err)
	}
	viaStream := res.(*sqlengine.ResultSet)
	if !reflect.DeepEqual(rs.Columns, viaStream.Columns) {
		t.Fatalf("columns: %v vs %v", rs.Columns, viaStream.Columns)
	}
	if !identicalRows(rs.Rows, viaStream.Rows) {
		t.Fatalf("rows:\n source: %v\n stream: %v", rs.Rows, viaStream.Rows)
	}
}

// TestWireCodecAllocs holds what the zero-boxing codecs are for: a result
// set's encode + decode round trip allocates at least 4x less cell-direct
// than a generic client's boxed round trip (the boxed {columns, rows}
// struct encoded, the document decoded into the generic value family), and
// about one allocation per row — the row itself, as the binary frame
// does — and the binary frame at least 2x less than boxed.
func TestWireCodecAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rs := &sqlengine.ResultSet{Columns: []string{"event_id", "run", "e_tot"}}
	for i := 0; i < 200; i++ {
		rs.Rows = append(rs.Rows, sqlengine.Row{sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(100 + i%5)), sqlengine.NewFloat(float64(i) / 7)})
	}
	boxed := testing.AllocsPerRun(5, func() {
		doc, _ := clarens.MarshalResponse(boxedResult(rs))
		v, err := clarens.DecodeResponse(bytes.NewReader(doc), nil)
		if m, _ := v.(map[string]interface{}); err != nil || len(m["rows"].([]interface{})) != len(rs.Rows) {
			t.Fatalf("boxed round trip: %v", err)
		}
	})
	direct := testing.AllocsPerRun(5, func() {
		doc, _ := clarens.MarshalResponse(WireResult(rs))
		res, err := clarens.DecodeResponse(bytes.NewReader(doc), decodeResult)
		if err != nil || len(res.(*sqlengine.ResultSet).Rows) != len(rs.Rows) {
			t.Fatalf("direct round trip: %v", err)
		}
	})
	binary := testing.AllocsPerRun(5, func() {
		if back, err := sqlengine.DecodeRowFrame(sqlengine.AppendRowFrame(nil, rs.Rows)); err != nil || len(back) != len(rs.Rows) {
			t.Fatalf("binary round trip: %v", err)
		}
	})
	t.Logf("allocs per round trip: boxed %.0f, direct XML %.0f, binary %.0f", boxed, direct, binary)
	if 4*direct > boxed || direct > 1.25*float64(len(rs.Rows)) || 2*binary > boxed {
		t.Fatalf("allocs per round trip: boxed %.0f, direct XML %.0f, binary %.0f; want direct <= boxed/4, direct <= 1.25/row and binary <= boxed/2", boxed, direct, binary)
	}
}

// relayPage builds n rows of the relay_scan page shape: two BIGINT and six
// DOUBLE cells.
func relayPage(n int) *sqlengine.ResultSet {
	rs := &sqlengine.ResultSet{Columns: []string{"event_id", "run", "v0", "v1", "v2", "v3", "v4", "v5"}}
	for i := 0; i < n; i++ {
		row := sqlengine.Row{sqlengine.NewInt(int64(100000 + i)), sqlengine.NewInt(102)}
		for j := 0; j < 6; j++ {
			row = append(row, sqlengine.NewFloat(float64(i*7+j)/3.0001+0.1))
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs
}

// TestDecodeChunkAllocsPerRow bounds the client half of a relay page: the
// 500-row numeric chunk decodes straight off the XML document at no more
// than two allocations per row (each row is allocated once, at its final
// width; the token walk itself allocates nothing) and 320 heap bytes per
// row: the 8-cell row is 256 B, the row list 24 B (it measures 281 B; it
// was 962 B with the 96-byte Value and a doubling row list).
func TestDecodeChunkAllocsPerRow(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 500
	doc, err := clarens.MarshalResponse(WireChunk(relayPage(n).Rows, false))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		res, err := clarens.DecodeResponse(bytes.NewReader(doc), decodeChunk)
		if err != nil || len(res.(*Chunk).Rows) != n {
			t.Fatalf("decode: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(5, decode); allocs > 2*n {
		t.Fatalf("decoding a %d-row page allocates %.0f times (%.2f per row), want <= 2 per row", n, allocs, allocs/n)
	}
	if perRow := allocBytesPerRun(20, decode) / n; perRow > 320 {
		t.Fatalf("decoding a %d-row page allocates %.0f heap bytes per row, want <= 320", n, perRow)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates, after a warm-up call.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSmallDecodeAllocBytes holds the 4-row result decode behind
// point_lookup and cached_refresh to its measured 1 688 heap bytes plus
// 10 % (the encoding/xml decoder took 17 928 B, the scanner with the
// 96-byte Value 4 992 B): the decoder's read window is pooled, not
// allocated per call. clarens's TestMethodCallAllocBytes
// holds the methodCall parse the same way.
func TestSmallDecodeAllocBytes(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	res := WireResult(relayPage(4))
	res["route"], res["servers"] = "unity", int64(1)
	result, err := clarens.MarshalResponse(res)
	if err != nil {
		t.Fatal(err)
	}
	resultBytes := allocBytesPerRun(1000, func() {
		if _, err := clarens.DecodeResponse(bytes.NewReader(result), decodeResult); err != nil {
			t.Fatal(err)
		}
	})
	if resultBytes > 1857 {
		t.Fatalf("heap bytes per 4-row result decode: %.0f (want <= 1857)", resultBytes)
	}
}

// binDeployment is twoServerDeployment with per-side control of the
// binary row codec.
func binDeployment(t *testing.T, jc1Bin, jc2Bin bool) (*Service, *Service) {
	t.Helper()
	catalog := rls.NewServer(0)
	rlsURL, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { catalog.Close() })

	mk := func(name string, bin bool) *Service {
		svc, srv, _, err := Start(Config{Name: name, Open: true, RLS: rls.NewClient(rlsURL), DisableBinRows: !bin})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); svc.Close() })
		return svc
	}
	jc1 := mk("jc1", jc1Bin)
	jc2 := mk("jc2", jc2Bin)

	_, evSpec := mkMart(t, "b_events", sqlengine.DialectMySQL, "events", 12)
	addMart(t, jc1, "b_events", evSpec, "gridsql-mysql")
	_, runSpec := mkMart(t, "b_runs", sqlengine.DialectMSSQL, "runsinfo", 6)
	addMart(t, jc2, "b_runs", runSpec, "gridsql-mssql")
	return jc1, jc2
}

// TestForwardNegotiatesBinary: with both sides speaking the codec, a
// remote forward uses the binary framing and returns the same rows.
func TestForwardNegotiatesBinary(t *testing.T) {
	jc1, _ := binDeployment(t, true, true)
	qr, err := jc1.QueryContext(context.Background(), "SELECT event_id, e_tot FROM runsinfo WHERE run = 101 ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteRemote || len(qr.Rows) != 3 {
		t.Fatalf("route=%s rows=%d", qr.Route, len(qr.Rows))
	}
	if got := jc1.Stats().BinForwards.Load(); got != 1 {
		t.Errorf("BinForwards = %d, want 1", got)
	}
	// Second forward reuses the negotiated peer without re-probing.
	if _, err := jc1.QueryContext(context.Background(), "SELECT event_id FROM runsinfo"); err != nil {
		t.Fatal(err)
	}
	if got := jc1.Stats().BinForwards.Load(); got != 2 {
		t.Errorf("BinForwards after second query = %d, want 2", got)
	}
}

// TestForwardFallsBackToPlainXML: a peer without the codec (third-party
// server, older build) answers over plain XML-RPC transparently.
func TestForwardFallsBackToPlainXML(t *testing.T) {
	jc1, _ := binDeployment(t, true, false)
	qr, err := jc1.QueryContext(context.Background(), "SELECT event_id, e_tot FROM runsinfo WHERE run = 101 ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	if qr.Route != RouteRemote || len(qr.Rows) != 3 {
		t.Fatalf("route=%s rows=%d", qr.Route, len(qr.Rows))
	}
	if got := jc1.Stats().BinForwards.Load(); got != 0 {
		t.Errorf("BinForwards = %d, want 0 (peer has no codec)", got)
	}

	// And a sender with the codec disabled never probes at all.
	jc1b, _ := binDeployment(t, false, true)
	if _, err := jc1b.QueryContext(context.Background(), "SELECT event_id FROM runsinfo"); err != nil {
		t.Fatal(err)
	}
	if got := jc1b.Stats().BinForwards.Load(); got != 0 {
		t.Errorf("BinForwards with DisableBinRows = %d, want 0", got)
	}
}

// TestForwardResultsIdenticalAcrossFramings: the same remote query through
// binary and XML framing produces identical rows.
func TestForwardResultsIdenticalAcrossFramings(t *testing.T) {
	const q = "SELECT event_id, run, e_tot FROM runsinfo ORDER BY event_id"
	jc1, _ := binDeployment(t, true, true)
	bin, err := jc1.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	jc1x, _ := binDeployment(t, false, false)
	xml, err := jc1x.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !identicalRows(bin.Rows, xml.Rows) || !reflect.DeepEqual(bin.Columns, xml.Columns) {
		t.Fatalf("framings disagree:\n bin: %v\n xml: %v", bin.ResultSet, xml.ResultSet)
	}
}

// TestQuerybAndFetchbEndToEnd drives the negotiated methods the way a
// peer server does: queryb for full results, cursor open + fetchb for
// paged streams, both decoded streaming off the wire.
func TestQuerybAndFetchbEndToEnd(t *testing.T) {
	_, jc2 := binDeployment(t, true, true)
	c := clarens.NewClient(jc2.cfg.URL)

	// Capability handshake.
	caps, err := c.CallContext(context.Background(), "system.capabilities")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := caps.(map[string]interface{})["rowcodec"].(int64); v < RowCodecVersion {
		t.Fatalf("capabilities = %v", caps)
	}

	res, err := c.CallDecodeContext(context.Background(), "dataaccess.queryb",
		decodeResult,
		"SELECT event_id, e_tot FROM runsinfo ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	rs := res.(*sqlengine.ResultSet)
	if len(rs.Rows) != 6 || rs.Rows[0][0].Int != 1 {
		t.Fatalf("queryb rows: %v", rs.Rows)
	}

	// Cursor + binary fetch.
	open, err := c.CallContext(context.Background(), "system.cursor.open", "SELECT event_id FROM runsinfo ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	id := open.(map[string]interface{})["cursor"].(string)
	var got []int64
	for {
		res, err := c.CallDecodeContext(context.Background(), "system.cursor.fetchb",
			decodeChunk,
			id, int64(2))
		if err != nil {
			t.Fatal(err)
		}
		chunk := res.(*Chunk)
		for _, row := range chunk.Rows {
			got = append(got, row[0].Int)
		}
		if chunk.Done {
			break
		}
	}
	if len(got) != 6 || got[0] != 1 || got[5] != 6 {
		t.Fatalf("fetchb streamed %v", got)
	}
	if _, err := c.CallContext(context.Background(), "system.cursor.close", id); err != nil {
		t.Fatal(err)
	}
}

// TestForwardEmptyResponse: a peer answering with an empty methodResponse
// (no result value) is a descriptive error, not a nil-assertion panic.
func TestForwardEmptyResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		io.WriteString(w, "<methodResponse></methodResponse>")
	}))
	defer srv.Close()
	s := New(Config{Name: "empty-test", DisableBinRows: true})
	defer s.Close()
	_, err := s.forward(context.Background(), srv.URL, "SELECT 1")
	if err == nil || !strings.Contains(err.Error(), "empty response") {
		t.Fatalf("err = %v, want empty-response error", err)
	}
}

// TestCursorStatsMethod: the system.cursorstats surface reports opens,
// fetches, streamed rows and reaps.
func TestCursorStatsMethod(t *testing.T) {
	_, jc2 := binDeployment(t, true, true)
	c := clarens.NewClient(jc2.cfg.URL)

	open, err := c.CallContext(context.Background(), "system.cursor.open", "SELECT event_id FROM runsinfo")
	if err != nil {
		t.Fatal(err)
	}
	id := open.(map[string]interface{})["cursor"].(string)
	if _, err := c.CallContext(context.Background(), "system.cursor.fetch", id, int64(4)); err != nil {
		t.Fatal(err)
	}

	res, err := c.CallContext(context.Background(), "system.cursorstats")
	if err != nil {
		t.Fatal(err)
	}
	st := res.(map[string]interface{})
	if st["open"].(int64) != 1 || st["opened"].(int64) != 1 {
		t.Errorf("open/opened = %v/%v", st["open"], st["opened"])
	}
	if st["fetches"].(int64) != 1 || st["rows"].(int64) != 4 {
		t.Errorf("fetches/rows = %v/%v", st["fetches"], st["rows"])
	}
	if _, err := c.CallContext(context.Background(), "system.cursor.close", id); err != nil {
		t.Fatal(err)
	}
	res, err = c.CallContext(context.Background(), "system.cursorstats")
	if err != nil {
		t.Fatal(err)
	}
	if open := res.(map[string]interface{})["open"].(int64); open != 0 {
		t.Errorf("open after close = %d", open)
	}
}
