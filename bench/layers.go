package main

// The traced run (-trace 1): a short loaded window for the counters that
// only mean something under load, then single-client passes over the
// first ops of the sequence — one untraced, one traced end to end, one
// replaying every layer in process — from which the per-layer metrics are
// computed. End-to-end metrics are never taken from this run.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/poolral"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
)

// traceOps caps how many ops each single-client pass covers; slow
// workloads cover fewer, as many as fit a tenth of the window.
const traceOps = 200

// layerRun is the state of the replay pass.
type layerRun struct {
	b   *bench
	tr  *tracer
	ctx context.Context

	ral  *poolral.RAL // the benchmark's own handles on the marts' connection strings
	rlsc *rls.Client

	fetchUs                []float64 // in-process FetchCursor time per client page
	memberRows, resultRows int64
	respBytes, xmlRows     int64
	binRows                int64
	marshalCalls, readOps  int64
	xmlEncode, xmlDecode   time.Duration
	binEncode, binDecode   time.Duration
	hitUs                  []float64
	firstErr               error
}

func (lr *layerRun) fail(err error) {
	if err != nil && lr.firstErr == nil {
		lr.firstErr = err
	}
}

// runTraced produces the per-layer metrics and a line on what they rest
// on.
func runTraced(ctx context.Context, b *bench, window time.Duration, out string) (result, []string, error) {
	// --- loaded window: counters, GC, tail latency --------------------
	var m0, m1 runtime.MemStats
	peak := startHeapPeak()
	before := b.d.counters()
	runtime.ReadMemStats(&m0)
	from := time.Now()
	t := b.window(ctx, b.clients, window/4)
	to := time.Now()
	runtime.ReadMemStats(&m1)
	delta := b.d.counters().sub(before)
	peakMB := peak.stop()
	if t.failed > 0 {
		return result{}, nil, fmt.Errorf("loaded window: %d of %d ops failed, first: %w", t.failed, t.attempted, t.firstErr)
	}
	// One slice, nothing judged stolen: these numbers are informational.
	loaded := summarize(t.samples, []slice{{from: from, to: to}})
	ops := float64(max(len(t.samples), 1))

	// --- single-client passes ------------------------------------------
	lr := &layerRun{b: b, tr: newTracer(), ctx: ctx, ral: poolral.New(), rlsc: rls.NewClient(b.d.grid.RLSURL())}
	defer lr.ral.Close()
	client := b.clients[0]
	floorUs, err := lr.rpcFloor(client)
	if err != nil {
		return result{}, nil, err
	}
	// Pass 0, untraced: how many ops fit the budget, and the baseline the
	// traced pass is compared with.
	if err := lr.reset(); err != nil {
		return result{}, nil, err
	}
	var plain []float64
	budget := time.Now().Add(window / 10)
	n := 0
	for ; n < traceOps && n < len(b.p.seq) && (n < 8 || time.Now().Before(budget)); n++ {
		d, err := lr.endToEnd(client, n)
		if err != nil {
			return result{}, nil, err
		}
		if b.p.seq[n].kind != opRefresh {
			plain = append(plain, ms(d))
		}
	}
	// Pass 1, traced end to end: one root span per op.
	if err := lr.reset(); err != nil {
		return result{}, nil, err
	}
	roots := make([]int, n)
	var traced []float64
	for i := 0; i < n; i++ {
		var err error
		roots[i] = lr.tr.measure("client.op", 0, i, func() { _, err = lr.endToEnd(client, i) })
		if err != nil {
			return result{}, nil, err
		}
		if b.p.seq[i].kind != opRefresh {
			traced = append(traced, ms(lr.tr.spans[roots[i]-1].dur()))
		}
	}
	// Pass 2: replay each op's layers in process, from the same state.
	if err := lr.reset(); err != nil {
		return result{}, nil, err
	}
	for i := 0; i < n; i++ {
		lr.replay(i, roots[i])
	}
	if lr.firstErr != nil {
		return result{}, nil, fmt.Errorf("layer replay: %w", lr.firstErr)
	}
	if out != "" {
		if err := lr.tr.writeTo(out); err != nil {
			return result{}, nil, err
		}
	}

	// --- metrics ---------------------------------------------------------
	self := selfTimes(lr.tr.spans)
	reads := float64(max(lr.readOps, 1))
	// perOp sums what of(span) gives over the op-tree spans with one of the
	// names, as mean microseconds per read op.
	perOp := func(of func(span) time.Duration, names ...string) float64 {
		var sum time.Duration
		for _, s := range lr.tr.spans {
			for _, n := range names {
				if s.Name == n && s.Parent != probeSpan {
					sum += of(s)
				}
			}
		}
		return us(sum) / reads
	}
	total := span.dur
	own := func(s span) time.Duration { return self[s.ID] }
	perKrow := func(d time.Duration, rows int64) float64 { return us(d) / float64(max(rows, 1)) * 1000 }
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	// What no layer call explains: the read ops' client latency beyond
	// their replayed children and the empty-call floor of their RPCs.
	var rootSum, covered time.Duration
	for _, s := range lr.tr.spans {
		switch {
		case s.Name == "client.op" && b.p.seq[s.Op].kind != opRefresh:
			rootSum += s.dur()
		case s.Parent > 0 && lr.tr.spans[s.Parent-1].Name == "client.op":
			covered += s.dur() // replayed one after another: no overlap
		}
	}
	rpcFloor := floorUs * float64(lr.marshalCalls)
	unattributedPct := 100 * (us(rootSum-covered) - rpcFloor) / us(rootSum)
	sortFloats(plain, traced)
	p50plain, p50traced := percentile(plain, 0.5), percentile(traced, 0.5)

	res := result{Correct: true, Attempted: t.attempted, Failed: t.failed}
	res.Metrics = map[string]metric{
		"sqlengine.parse_us":                 {perOp(total, "sqlengine.parse"), "us"},
		"sqlengine.exec_us":                  {perOp(total, "sqlengine.exec"), "us"},
		"sqlengine.exec_rows_per_result_row": {ratio(lr.memberRows, lr.resultRows), "ratio"},
		"unity.plan_self_us":                 {perOp(own, "unity.plan", "unity.ralparts"), "us"},
		"unity.exec_self_us":                 {perOp(own, "unity.exec"), "us"},
		"unity.subqueries_per_op":            {float64(delta[cFedSubqueries]) / ops, "count"},
		"unity.pushdown_ratio":               {ratio(delta[cFedPushdowns], delta[cFedQueries]), "ratio"},
		"poolral.query_us":                   {perOp(total, "poolral.query"), "us"},
		"rls.lookup_us":                      {perOp(total, "rls.lookup"), "us"},
		"rls.lookups_per_op":                 {float64(delta[cRLSLookups]) / ops, "count"},
		"dataaccess.query_self_us":           {perOp(own, "dataaccess.query"), "us"},
		"dataaccess.cursor_fetch_us":         {mean(lr.fetchUs), "us"},
		"dataaccess.bin_encode_us_per_krow":  {perKrow(lr.binEncode, lr.binRows), "us"},
		"dataaccess.bin_decode_us_per_krow":  {perKrow(lr.binDecode, lr.binRows), "us"},
		"dataaccess.relay_fetches_per_op":    {float64(delta[cRelayFetches]) / ops, "count"},
		"dataaccess.relay_fallbacks":         {float64(delta[cRelayFallbacks]), "count"},
		"dataaccess.bin_forwards":            {float64(delta[cBinForwards]), "count"},
		"dataaccess.admit_queued":            {float64(delta[cAdmitQueued]), "count"},
		"qcache.hit_ratio":                   {delta.hitRatio(), "ratio"},
		"qcache.evictions":                   {float64(delta[cEvictions]), "count"},
		"qcache.invalidations":               {float64(delta[cInvalidations]), "count"},
		"qcache.rejected":                    {float64(delta[cRejected]), "count"},
		"qcache.hit_us":                      {mean(lr.hitUs), "us"},
		"clarens.call_marshal_us":            {perOp(total, "clarens.call_marshal"), "us"},
		"clarens.xml_encode_us_per_krow":     {perKrow(lr.xmlEncode, lr.xmlRows), "us"},
		"clarens.xml_decode_us_per_krow":     {perKrow(lr.xmlDecode, lr.xmlRows), "us"},
		"clarens.resp_bytes_per_row":         {ratio(lr.respBytes, lr.xmlRows), "B"},
		"clarens.rpc_self_us":                {rpcFloor / reads, "us"},
		"warehouse.stage1_s":                 {b.d.stage1.Total().Seconds(), "s"},
		"warehouse.materialize_ms":           {ms(b.d.materialize), "ms"},
		"warehouse.refresh_p50_ms":           {percentile(loaded.refreshMs, 0.5), "ms"},
		"client.query_p99_ms":                {percentile(loaded.latMs, 0.99), "ms"},
		"client.samples":                     {float64(len(loaded.latMs)), "count"},
		"runtime.gc_cycles_per_op":           {float64(m1.NumGC-m0.NumGC) / ops, "count"},
		"runtime.gc_pause_ms":                {float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
		"runtime.peak_heap_mb":               {peakMB, "MB"},
		"trace.unattributed_pct":             {unattributedPct, "%"},
		"trace.overhead_pct":                 {100 * (p50traced - p50plain) / p50plain, "%"},
	}
	note := fmt.Sprintf("trace      %d ops per pass (%d reads), %d spans, single-client p50 %.3f ms untraced / %.3f ms traced; loaded window %s, %d ops",
		n, lr.readOps, len(lr.tr.spans), p50plain, p50traced, window/4, len(t.samples))
	return res, []string{note}, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// reset puts front's cache in the state every pass starts from: empty
// for the workloads meant to miss, every query resident for
// cached_refresh (whose passes begin with the refresh that evicts half).
func (lr *layerRun) reset() error {
	svc := lr.b.d.front.Service
	svc.CacheFlush()
	if lr.b.p.seq[0].kind != opRefresh {
		return nil
	}
	for _, q := range lr.b.p.queries {
		if _, err := svc.QueryContext(lr.ctx, q); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd runs op i of the sequence over HTTP as the load clients do,
// checking the answer, and returns its latency.
func (lr *layerRun) endToEnd(c *clarens.Client, i int) (time.Duration, error) {
	var t tally
	lr.b.step(lr.ctx, c, int64(i), true, &t)
	if t.firstErr != nil {
		return 0, t.firstErr
	}
	s := t.samples[0]
	return s.end.Sub(s.start), nil
}

// rpcFloor measures the cost of an XML-RPC call that does nothing: HTTP
// round trip, mux, session check and a one-struct reply.
func (lr *layerRun) rpcFloor(c *clarens.Client) (float64, error) {
	var v []float64
	for i := 0; i < traceOps; i++ {
		start := time.Now()
		if _, err := c.CallContext(lr.ctx, "system.capabilities"); err != nil {
			return 0, err
		}
		v = append(v, us(time.Since(start)))
	}
	sortFloats(v)
	return percentile(v, 0.5), nil
}

// replay re-runs op i's layers in process as children of its root span.
func (lr *layerRun) replay(i, root int) {
	o := lr.b.p.seq[i]
	switch o.kind {
	case opRefresh:
		lr.fail(lr.b.d.refreshHot())
	case opScan:
		lr.readOps++
		lr.replayScan(i, root, lr.b.p.queries[o.query])
	default:
		lr.readOps++
		lr.replayQuery(i, root, lr.b.p.queries[o.query])
	}
}

// planSpan replays a unity call that starts by parsing sql (PlanQuery,
// ExtractRALParts) as a child of parent, with the parse as its own child.
func (lr *layerRun) planSpan(name string, parent, op int, sql string, call func()) {
	id := lr.tr.measure(name, parent, op, call)
	lr.tr.measure("sqlengine.parse", id, op, func() {
		_, err := sqlengine.NewParser(sqlengine.DialectANSI).ParseStatement(sql)
		lr.fail(err)
	})
}

// memberExec replays, as children of parent, the member-database
// sub-queries system.explain reports for sql on svc — concurrently, like
// unity's scatter-gather.
func (lr *layerRun) memberExec(svc *dataaccess.Service, parent, op int, sql string) {
	ex, err := svc.Explain(lr.ctx, sql)
	if err != nil {
		lr.fail(err)
		return
	}
	subs, _ := ex["subqueries"].([]interface{})
	type outcome struct {
		rows int64
		err  error
	}
	done := make(chan outcome, len(subs)) // one send per sub-query
	for _, s := range subs {
		sub, _ := s.(map[string]interface{})
		source, _ := sub["source"].(string)
		text, _ := sub["sql"].(string)
		go func() {
			var o outcome
			lr.tr.measure("sqlengine.exec", parent, op, func() {
				eng, ok := sqldriver.LookupEngine(source)
				if !ok {
					o.err = fmt.Errorf("no engine registered for source %q", source)
					return
				}
				rs, err := eng.Query(text)
				if err != nil {
					o.err = err
					return
				}
				o.rows = int64(len(rs.Rows))
			})
			done <- o
		}()
	}
	for range subs {
		o := <-done
		lr.fail(o.err)
		lr.memberRows += o.rows
	}
}

// ralConn opens (once) the benchmark's own POOL-RAL handle on a source's
// connection string, the one the service derives for it.
func (lr *layerRun) ralConn(fed *unity.Federation, source string) (string, error) {
	driver, err := fed.SourceDriver(source)
	if err != nil {
		return "", err
	}
	url, err := fed.SourceURL(source)
	if err != nil {
		return "", err
	}
	conn := unity.VendorFromDriver(driver) + ":" + url
	return conn, lr.ral.InitHandler(conn, "", "")
}

// replayQuery replays a materialized dataaccess.query.
func (lr *layerRun) replayQuery(i, root int, sql string) {
	svc := lr.b.d.front.Service
	lr.tr.measure("clarens.call_marshal", root, i, func() {
		_, err := clarens.MarshalCall("dataaccess.query", []interface{}{sql})
		lr.fail(err)
	})
	lr.marshalCalls++

	var qr *dataaccess.QueryResult
	hits := svc.CacheStats().Hits
	q := lr.tr.measure("dataaccess.query", root, i, func() {
		var err error
		qr, err = svc.QueryContext(lr.ctx, sql)
		lr.fail(err)
	})
	if qr == nil {
		return
	}
	lr.resultRows += int64(len(qr.Rows))
	if svc.CacheStats().Hits > hits {
		// Served from the cache: no children, the whole span is the hit path.
		lr.tr.spans[q-1].Name = "qcache.hit"
		lr.hitUs = append(lr.hitUs, us(lr.tr.spans[q-1].dur()))
	} else {
		lr.replayMiss(i, q, sql, qr.Route)
		// The same key, now resident: the hit path in isolation.
		h := lr.tr.measure("qcache.hit", probeSpan, i, func() {
			_, err := svc.QueryContext(lr.ctx, sql)
			lr.fail(err)
		})
		lr.hitUs = append(lr.hitUs, us(lr.tr.spans[h-1].dur()))
	}

	payload := dataaccess.WireResult(qr.ResultSet)
	payload["route"] = string(qr.Route)
	payload["servers"] = int64(qr.Servers)
	lr.codec(root, i, payload, len(qr.Rows), decodeResult)
}

// replayMiss replays what the service did under span q to answer sql on
// the given route.
func (lr *layerRun) replayMiss(i, q int, sql string, route dataaccess.Route) {
	svc := lr.b.d.front.Service
	fed := svc.Federation()
	var plan *unity.Plan
	lr.planSpan("unity.plan", q, i, sql, func() {
		var err error
		plan, err = fed.PlanQuery(sql)
		lr.fail(err)
	})
	if plan == nil {
		return
	}
	switch route {
	case dataaccess.RoutePOOLRAL:
		// The service asks unity a second time, for the RAL call shape.
		var parts *unity.RALParts
		lr.planSpan("unity.ralparts", q, i, sql, func() {
			var err error
			parts, _, err = fed.ExtractRALParts(sql)
			lr.fail(err)
		})
		if parts == nil {
			return
		}
		conn, err := lr.ralConn(fed, parts.Source)
		if err != nil {
			lr.fail(err)
			return
		}
		id := lr.tr.measure("poolral.query", q, i, func() {
			_, err := lr.ral.QueryValuesContext(lr.ctx, conn, parts.Fields, parts.Tables, parts.Where)
			lr.fail(err)
		})
		lr.memberExec(svc, id, i, sql)
	case dataaccess.RouteUnity:
		id := lr.tr.measure("unity.exec", q, i, func() {
			_, err := fed.ExecuteContext(lr.ctx, plan)
			lr.fail(err)
		})
		lr.memberExec(svc, id, i, sql)
	}
}

// codec replays the XML encode of one response payload and the decode of
// the resulting document, as children of the op's root.
func (lr *layerRun) codec(root, op int, payload map[string]interface{}, rows int, decode func(*clarens.Decoder) (interface{}, error)) {
	doc, err := clarens.MarshalResponse(payload)
	if err != nil {
		lr.fail(err)
		return
	}
	lr.respBytes += int64(len(doc))
	lr.xmlRows += int64(rows)
	e := lr.tr.measure("clarens.xml_encode", root, op, func() {
		lr.fail(clarens.MarshalResponseTo(io.Discard, payload))
	})
	d := lr.tr.measure("clarens.xml_decode", root, op, func() {
		_, err := clarens.DecodeResponse(bytes.NewReader(doc), decode)
		lr.fail(err)
	})
	lr.xmlEncode += lr.tr.spans[e-1].dur()
	lr.xmlDecode += lr.tr.spans[d-1].dur()
}

// cursorScan pages a cursor in process on svc to the end and returns the
// pages; perFetch, when set, is told each FetchCursor's duration.
func (lr *layerRun) cursorScan(svc *dataaccess.Service, sql string, page int, perFetch func(time.Duration)) [][]sqlengine.Row {
	info, err := svc.OpenCursor(lr.ctx, sql)
	if err != nil {
		lr.fail(err)
		return nil
	}
	defer svc.CloseCursor(info.ID)
	var pages [][]sqlengine.Row
	for {
		start := time.Now()
		rows, done, err := svc.FetchCursor(info.ID, page)
		if err != nil {
			lr.fail(err)
			return pages
		}
		if perFetch != nil {
			perFetch(time.Since(start))
		}
		pages = append(pages, rows)
		if done {
			return pages
		}
	}
}

// replayScan replays a relayed cursor scan: the front server's cursor in
// process, and under it the failed local plan (the table is not hosted
// there), the catalog lookup, the peer's side of the relay, and the
// binary frames between the two servers.
func (lr *layerRun) replayScan(i, root int, sql string) {
	front, peer := lr.b.d.front.Service, lr.b.d.peer.Service
	// A cursor id is 32 hex digits; only its length matters to the marshal.
	const cursorID = "0123456789abcdef0123456789abcdef"
	var pages [][]sqlengine.Row
	q := lr.tr.measure("dataaccess.query", root, i, func() {
		pages = lr.cursorScan(front, sql, scanPage, func(d time.Duration) { lr.fetchUs = append(lr.fetchUs, us(d)) })
	})
	lr.planSpan("unity.plan", q, i, sql, func() { front.Federation().PlanQuery(sql) })
	lr.tr.measure("rls.lookup", q, i, func() {
		_, err := lr.rlsc.LookupContext(lr.ctx, tblRun102)
		lr.fail(err)
	})
	var relayed [][]sqlengine.Row
	r := lr.tr.measure("remote.cursor", q, i, func() {
		relayed = lr.cursorScan(peer, sql, dataaccess.DefaultFetchSize, nil)
	})
	lr.memberExec(peer, r, i, sql)
	var frames [][]byte
	enc := lr.tr.measure("dataaccess.bin_encode", q, i, func() {
		for _, p := range relayed {
			frames = append(frames, dataaccess.AppendRowsBinary(nil, p))
			lr.binRows += int64(len(p))
		}
	})
	dec := lr.tr.measure("dataaccess.bin_decode", q, i, func() {
		for _, f := range frames {
			_, err := dataaccess.DecodeRowsBinary(f)
			lr.fail(err)
		}
	})
	lr.binEncode += lr.tr.spans[enc-1].dur()
	lr.binDecode += lr.tr.spans[dec-1].dur()

	lr.tr.measure("clarens.call_marshal", root, i, func() {
		_, err := clarens.MarshalCall("system.cursor.open", []interface{}{sql})
		lr.fail(err)
		for range pages {
			_, err := clarens.MarshalCall("system.cursor.fetch", []interface{}{cursorID, int64(scanPage)})
			lr.fail(err)
		}
		_, err = clarens.MarshalCall("system.cursor.close", []interface{}{cursorID})
		lr.fail(err)
	})
	lr.marshalCalls += int64(len(pages)) + 2
	for n, p := range pages {
		lr.resultRows += int64(len(p))
		lr.codec(root, i, dataaccess.WireChunk(p, n == len(pages)-1), len(p), decodeChunk)
	}
}

// heapPeak samples the live heap during the loaded window.
type heapPeak struct {
	quit chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				metrics.Read(sample)
				peak = max(peak, sample[0].Value.Uint64())
			case <-h.quit:
				h.done <- float64(peak) / (1 << 20)
				return
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in MiB.
func (h *heapPeak) stop() float64 {
	close(h.quit)
	return <-h.done
}
