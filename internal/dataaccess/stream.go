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
type StreamResult struct {
	cols []string
	// Route identifies which module produces the rows.
	Route Route
	// Servers is the number of Clarens servers involved (1 = local only).
	Servers int
	iter    sqlengine.RowIter
}

// Columns returns the result's column names.
func (sr *StreamResult) Columns() []string { return sr.cols }

// Next returns the next row, or (nil, io.EOF) after the last one.
func (sr *StreamResult) Next() (sqlengine.Row, error) { return sr.iter.Next() }

// Close releases the producer. Idempotent.
func (sr *StreamResult) Close() error { return sr.iter.Close() }

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
// Cache interplay: a resident entry is served (from memory) without
// touching a backend. A cache miss fills the cache only while the
// accumulated result stays under the cache's per-entry admission cap —
// above that byte threshold the query streams past the cache, since a
// result too large to admit is exactly the result that must not be
// buffered. Without a byte budget (Config.CacheMaxBytes) streamed results
// are never admitted: an unbounded fill buffer would defeat streaming.
func (s *Service) QueryStreamContext(ctx context.Context, sqlText string, params ...sqlengine.Value) (*StreamResult, error) {
	s.stats.Queries.Add(1)
	ctx, t := s.beginTrack(ctx, sqlText)
	key := cacheKey(sqlText, params)
	// The invalidation epoch is snapshotted before the query executes —
	// not at insert time — so a schema change or mart refresh landing
	// while the scan is in flight suppresses the insert of the
	// pre-invalidation rows (the same discipline qcache.Do applies).
	var epoch int64
	if s.cache != nil {
		if qr, ok := s.cache.Get(key); ok {
			t.setClass(classCache)
			// A hit bypasses the admission gate (no backend work) but still
			// charges the session's streamed-byte quota: delivery is what
			// the quota meters, wherever the rows come from.
			sr := &StreamResult{
				cols:    qr.Columns,
				Route:   qr.Route,
				Servers: qr.Servers,
				iter:    sqlengine.SliceIter(qr.ResultSet),
			}
			return s.trackStream(s.gateStream(sr, nil, callerFrom(ctx)), t), nil
		}
		epoch = s.cache.Epoch()
	}
	// The admission gate sits between the cache (hits never consume a
	// slot) and the planner (a shed query never parses, plans, or opens a
	// backend connection). The slot stays held while the stream lives —
	// released when the consumer drains, errors, or closes it — so
	// MaxInFlight bounds concurrently *streaming* work, cursors included.
	tk, aerr := s.acquireSlot(ctx)
	if aerr != nil {
		t.finish(aerr)
		return nil, aerr
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
	s.teeIntoCache(sr, key, d.deps, epoch)
	return s.trackStream(s.gateStream(sr, tk, callerFrom(ctx)), t), nil
}

// teeIntoCache inserts the cache-fill tee over a freshly opened stream
// when the cache can possibly admit the result. epoch is the invalidation
// epoch snapshotted before the producer started.
func (s *Service) teeIntoCache(sr *StreamResult, key string, deps []qcache.Dep, epoch int64) {
	if s.cache == nil {
		return
	}
	limit := s.cache.MaxEntryBytes()
	if limit <= 0 {
		// No byte budget configured: a streamed result may be arbitrarily
		// large, and buffering it for the cache would defeat streaming.
		return
	}
	sr.iter = &cacheFillIter{
		inner:   sr.iter,
		svc:     s,
		key:     key,
		deps:    deps,
		route:   sr.Route,
		servers: sr.Servers,
		epoch:   epoch,
		limit:   limit,
		acc:     &sqlengine.ResultSet{Columns: sr.cols},
	}
}

// cacheFillIter tees a live stream into a bounded buffer: if the stream
// completes while the accumulated copy is still under the cache's
// admission cap, the copy is inserted (epoch-checked, so an invalidation
// racing the scan wins); the moment the copy outgrows the cap it is
// dropped and the stream continues uncached. The consumer's view of the
// rows is unaffected either way.
type cacheFillIter struct {
	inner   sqlengine.RowIter
	svc     *Service
	key     string
	deps    []qcache.Dep
	route   Route
	servers int
	epoch   int64
	limit   int64
	acc     *sqlengine.ResultSet // nil once the copy is abandoned
	bytes   int64
	done    bool
}

func (it *cacheFillIter) Columns() []string { return it.inner.Columns() }

func (it *cacheFillIter) Next() (sqlengine.Row, error) {
	row, err := it.inner.Next()
	if err == io.EOF {
		if it.acc != nil && !it.done {
			it.done = true
			qr := &QueryResult{ResultSet: it.acc, Route: it.route, Servers: it.servers}
			it.svc.cache.PutChecked(it.key, qr, it.deps, it.epoch)
		}
		return nil, io.EOF
	}
	if err != nil {
		it.acc = nil
		return nil, err
	}
	if it.acc != nil {
		it.bytes += sqlengine.RowBytes(row)
		if it.bytes > it.limit {
			it.acc = nil // over the admission cap: stop copying
		} else {
			it.acc.Rows = append(it.acc.Rows, row)
		}
	}
	return row, nil
}

func (it *cacheFillIter) Close() error { return it.inner.Close() }
