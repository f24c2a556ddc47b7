package dataaccess

import (
	"context"
	"io"

	"gridrdb/internal/qcache"
	"gridrdb/internal/sqlengine"
)

// StreamResult is a routed query answer delivered incrementally: rows are
// pulled from the producing backend as the consumer calls Next, so a scan
// larger than server memory never materializes here. It implements
// sqlengine.RowIter. Close releases the producing query's resources (and,
// on the streaming routes, cancels its backend work); it is idempotent
// and must always be called.
//
// A stream from QueryStreamContext is the service's query edge: its Next
// and Close apply the cache fill, the admission ticket, the session byte
// quota and the query track, in one fixed order (see Next and end). The
// raw stream open returns, which QueryContext drains, has none of them.
type StreamResult struct {
	cols []string
	// Route identifies which module produces the rows.
	Route Route
	// Servers is the number of Clarens servers involved (1 = local only).
	Servers int
	iter    sqlengine.RowIter

	fill  *streamFill   // the cache copy; nil once dropped or admitted
	tk    *ticket       // the admission slot, held until the terminal Next or Close
	quota *sessionTable // set when it meters ci's streamed bytes
	ci    CallerInfo
	t     *qtrack
}

// streamFill is the bounded copy of a cache miss's rows: admitted at EOF
// (epoch-checked, so an invalidation racing the scan wins) while it stays
// under the cache's per-entry cap, dropped the moment it outgrows the cap
// or the stream fails, is cut by the quota or is closed early. The
// consumer's view of the rows is the same either way.
type streamFill struct {
	cache *qcache.Cache[*QueryResult]
	key   string
	deps  []qcache.Dep
	epoch int64
	limit int64
	bytes int64
	rows  []sqlengine.Row
}

// Columns returns the result's column names.
func (sr *StreamResult) Columns() []string { return sr.cols }

// Next returns the next row, or (nil, io.EOF) after the last one. A
// delivered row is sized once, and that size is what the quota charges,
// the fill counts against its cap and the track adds to its bytes. A
// row that trips the quota is withheld: the stream fails with the quota
// fault, the fill is dropped, and the ticket stays held until Close.
func (sr *StreamResult) Next() (sqlengine.Row, error) {
	row, err := sr.iter.Next()
	if err != nil {
		sr.end(err)
		return nil, err
	}
	if sr.fill == nil && sr.quota == nil && sr.t == nil {
		return row, nil
	}
	n := sqlengine.RowBytes(row)
	if err := sr.quota.chargeBytes(sr.ci, n); err != nil {
		sr.fill = nil
		sr.t.finish(err)
		return nil, err
	}
	if f := sr.fill; f != nil {
		if f.bytes += n; f.bytes > f.limit {
			sr.fill = nil
		} else {
			f.rows = append(f.rows, row)
		}
	}
	sr.t.delivered(n)
	return row, nil
}

// Close releases the producer, then the edge. Idempotent.
func (sr *StreamResult) Close() error {
	err := sr.iter.Close()
	sr.end(nil)
	return err
}

// end applies the edge when the stream is over: at EOF the fill is
// admitted, on an error or a Close (err nil) it is dropped; then the
// ticket is released; then the track finishes, with the error if there
// was one. An abandoned stream still completes its track: its latency
// covers opening through abandonment, under the route that produced it.
func (sr *StreamResult) end(err error) {
	if f := sr.fill; f != nil && err == io.EOF {
		qr := &QueryResult{ResultSet: &sqlengine.ResultSet{Columns: sr.cols, Rows: f.rows}, Route: sr.Route, Servers: sr.Servers}
		f.cache.PutChecked(f.key, qr, f.deps, f.epoch)
	}
	sr.fill = nil
	sr.tk.release()
	if err == io.EOF {
		err = nil
	}
	sr.t.finish(err)
}

// ForEach drains the stream through fn, closing it afterwards; a non-nil
// error from fn stops the iteration (and the producing query) early.
func (sr *StreamResult) ForEach(fn func(sqlengine.Row) error) error {
	defer sr.Close()
	for {
		row, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// QueryStreamContext answers a query as an incremental row stream: the
// same resolve and open as QueryContext, with the stream handed to the
// caller instead of drained. Single-source scans — the POOL-RAL route and
// Unity pushdown plans, the shape of the paper's large Fig-6 scans —
// stream straight off the backend with bounded buffering. A query whose
// tables all live on one remote server streams through a cursor-to-cursor
// relay: a cursor is opened on the peer and pulled page by page, so no
// server on the path materializes the scan (peers without cursor support
// fall back to a materialized forward). Decomposed and mixed queries run
// on the pipelined operators, their inputs — member-database cursors and
// remote relays — flowing through the join as the consumer pulls; the
// tables a subquery reads are drained into memory when it first runs.
// Cancelling ctx (or closing the stream) stops the
// producing backend query mid-scan — across servers, closing a relayed
// stream closes the remote cursor.
//
// The returned stream is the query edge (see StreamResult), built by
// edge for a cache hit and a miss alike. A resident entry is served from
// memory without touching a backend or taking an admission slot, and is
// charged to the session's byte quota like any delivery. A miss holds an
// admission slot while the stream lives and fills the cache only while
// the accumulated result stays under the cache's per-entry admission
// cap — above that byte threshold the query streams past the cache,
// since a result too large to admit is exactly the result that must not
// be buffered. Without a byte budget (Config.CacheMaxBytes) streamed
// results are never admitted: an unbounded fill buffer would defeat
// streaming.
func (s *Service) QueryStreamContext(ctx context.Context, sqlText string, params ...sqlengine.Value) (*StreamResult, error) {
	s.stats.Queries.Add(1)
	ctx, t := s.beginTrack(ctx, sqlText)
	var fill *streamFill
	if s.cache != nil {
		key := cacheKey(sqlText, params)
		if qr, ok := s.cache.Get(key); ok {
			t.setClass(classCache)
			return s.edge(ctx, t, rawStream(sqlengine.SliceIter(qr.ResultSet), qr.Route, qr.Servers), nil, nil), nil
		}
		// The invalidation epoch is snapshotted before the query executes —
		// not at insert time — so a schema change or mart refresh landing
		// while the scan is in flight suppresses the insert of the
		// pre-invalidation rows (the same discipline qcache.Do applies).
		if limit := s.cache.MaxEntryBytes(); limit > 0 {
			fill = &streamFill{cache: s.cache, key: key, epoch: s.cache.Epoch(), limit: limit}
		}
	}
	// The admission gate sits between the cache (hits never consume a
	// slot) and the planner (a shed query never parses, plans, or opens a
	// backend connection). The slot stays held while the stream lives, so
	// MaxInFlight bounds concurrently *streaming* work, cursors included.
	tk, err := s.acquireSlot(ctx)
	if err != nil {
		t.finish(err)
		return nil, err
	}
	d, err := s.resolve(ctx, sqlText, params)
	var sr *StreamResult
	if err == nil {
		sr, err = s.open(ctx, d, sqlText, params, false)
	}
	if err != nil {
		tk.release()
		t.finish(err)
		return nil, err
	}
	if fill != nil {
		fill.deps = d.deps
	}
	return s.edge(ctx, t, sr, tk, fill), nil
}

// edge makes a raw stream the query edge: it holds the admission ticket
// and the cache fill (both nil on a cache hit), charges the caller's
// session quota when that meters bytes, and starts the stream phase of
// the query's track.
func (s *Service) edge(ctx context.Context, t *qtrack, sr *StreamResult, tk *ticket, fill *streamFill) *StreamResult {
	sr.t, sr.tk, sr.fill, sr.ci = t, tk, fill, callerFrom(ctx)
	if s.sessions.metersBytes(sr.ci) {
		sr.quota = s.sessions
	}
	sr.t.beginStream()
	return sr
}
