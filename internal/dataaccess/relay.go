package dataaccess

// Cursor-to-cursor relay: when a streamed query routes to another
// JClarens instance, this server opens a server-side cursor *on the peer*
// (system.cursor.open) and exposes it locally as a sqlengine.RowIter that
// pulls one page at a time — via system.cursor.fetchb when the peer
// advertises the binary row codec, system.cursor.fetch otherwise. Neither
// side ever materializes the result: the peer's memory is bounded by its
// cursor fetch size, this server's by the relay fetch size, and a client
// paging the local cursor registry chains the bound across any number of
// hops. Closing the local stream (or reaping its cursor) closes the
// remote cursor, so an abandoned federated scan releases its resources on
// every server involved.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/sqlengine"
)

// errRelayUnsupported reports a peer without the system.cursor.* methods
// (an older server, or a restricted deployment): callers fall back to the
// materialized whole-result forward.
var errRelayUnsupported = errors.New("dataaccess: peer does not support server-side cursors")

// relayCloseTimeout bounds the best-effort system.cursor.close call a
// relay sends when the local consumer is done: the consumer's own context
// may already be cancelled (that is often *why* the relay is closing), so
// the close runs detached, but a dead peer must not stall the local Close.
const relayCloseTimeout = 5 * time.Second

// relayIter adapts a cursor on a remote JClarens instance to a local
// sqlengine.RowIter. It buffers at most one fetched chunk; Next refills
// the buffer by fetching the next page from the peer. Like every RowIter
// it is single-consumer.
type relayIter struct {
	svc  *Service
	p    *remotePeer
	url  string
	ctx  context.Context
	id   string
	cols []string
	// fetchN is the page size requested per fetch (the peer clamps it).
	fetchN int
	// binary selects system.cursor.fetchb; a FaultNoMethod mid-stream
	// downgrades it to the plain fetch permanently (for this peer).
	binary bool

	buf    []sqlengine.Row
	pos    int
	done   bool  // the peer reported stream exhaustion
	failed error // terminal fetch error, returned on every later Next
	// remoteClosed marks the peer-side cursor as released (by our close
	// call, or implicitly by the peer after a done chunk plus our close).
	remoteClosed bool
	closed       bool
}

// openRelay starts a streaming query on a remote peer and returns the
// relay iterator over its cursor. A peer without the cursor methods
// returns errRelayUnsupported (callers fall back to a materialized
// forward); any other failure is terminal.
func (s *Service) openRelay(ctx context.Context, serverURL, sqlText string) (*relayIter, error) {
	p := s.remotePeer(serverURL)
	cctx, cancel := s.sourceCall(ctx)
	defer cancel()
	res, err := p.c.CallContext(cctx, "system.cursor.open", sqlText)
	if err != nil {
		var f *clarens.Fault
		if errors.As(err, &f) && f.Code == clarens.FaultNoMethod {
			return nil, errRelayUnsupported
		}
		return nil, fmt.Errorf("dataaccess: relay open on %s: %w", serverURL, err)
	}
	m, ok := res.(map[string]interface{})
	if !ok {
		return nil, fmt.Errorf("dataaccess: relay open on %s: unexpected response %T", serverURL, res)
	}
	id, _ := m["cursor"].(string)
	if id == "" {
		return nil, fmt.Errorf("dataaccess: relay open on %s: response carries no cursor id", serverURL)
	}
	it := &relayIter{svc: s, p: p, url: serverURL, ctx: ctx, id: id, fetchN: s.cfg.RelayFetchSize}
	// A missing column list or a name that is not a string is a protocol
	// error, not a result with no or blank columns; the cursor just opened
	// is released. An empty name is a name: an empty-string literal
	// column has one.
	colsRaw, _ := m["columns"].([]interface{})
	if len(colsRaw) == 0 {
		it.closeRemote()
		return nil, fmt.Errorf("dataaccess: relay open on %s: protocol error: the cursor describes no columns", serverURL)
	}
	it.cols = make([]string, len(colsRaw))
	for i, c := range colsRaw {
		name, ok := c.(string)
		if !ok {
			it.closeRemote()
			return nil, fmt.Errorf("dataaccess: relay open on %s: protocol error: column %d is %T %v, want a name", serverURL, i, c, c)
		}
		it.cols[i] = name
	}
	if it.fetchN <= 0 {
		it.fetchN = DefaultFetchSize
	}
	s.obs.relayOpens.Inc()
	s.obs.log(ctx, slog.LevelDebug, "relay: cursor opened",
		slog.String("peer", serverURL), slog.String("cursor", id))
	// The capability probe shares the open call's source budget (cctx is
	// cancelled only when this function returns).
	it.binary = s.peerSpeaksBinary(cctx, p)
	return it, nil
}

// remoteRows answers sqlText from a peer as a row stream: a cursor relay,
// or — when the caller wants the whole result at once, or the peer
// predates the cursor protocol — a single materialized forward.
func (s *Service) remoteRows(ctx context.Context, serverURL, sqlText string, wholeResult bool) (sqlengine.RowIter, error) {
	if !wholeResult {
		it, err := s.openRelay(ctx, serverURL, sqlText)
		if err == nil {
			return it, nil
		}
		if !errors.Is(err, errRelayUnsupported) {
			return nil, err
		}
	}
	rs, err := s.forward(ctx, serverURL, sqlText)
	if err != nil {
		return nil, err
	}
	return sqlengine.SliceIter(rs), nil
}

// tableStreamFromRemote is the federation's peer opener: the stream of
// one table load planned at a peer location (see peerLocations). The
// stream is *lazy*: the relay cursor is opened on the peer only when the
// integration starts consuming this table, not when its loads are opened
// — a query whose other tables take minutes to produce their first row
// must not leave this one's remote cursor idling toward the peer's TTL
// reaper before its first fetch.
func (s *Service) tableStreamFromRemote(ctx context.Context, location, fetchSQL string) (sqlengine.RowIter, error) {
	serverURL := strings.TrimPrefix(location, remoteDepPrefix)
	return &lazyIter{open: func() (sqlengine.RowIter, error) {
		return s.remoteRows(ctx, serverURL, fetchSQL, false)
	}}, nil
}

// lazyIter defers producing its inner iterator until first use, so a
// stream's remote resources come alive only when a consumer actually
// arrives. Closing before first use suppresses the open entirely.
type lazyIter struct {
	open func() (sqlengine.RowIter, error)
	it   sqlengine.RowIter
	err  error
}

func (l *lazyIter) resolve() error {
	if l.it == nil && l.err == nil {
		l.it, l.err = l.open()
	}
	return l.err
}

func (l *lazyIter) Columns() []string {
	if l.resolve() != nil {
		return nil
	}
	return l.it.Columns()
}

func (l *lazyIter) Next() (sqlengine.Row, error) {
	if err := l.resolve(); err != nil {
		return nil, err
	}
	return l.it.Next()
}

func (l *lazyIter) Close() error {
	if l.it != nil {
		return l.it.Close()
	}
	if l.err == nil {
		l.err = errors.New("dataaccess: iterator closed before use")
	}
	return nil
}

func (it *relayIter) Columns() []string { return it.cols }

func (it *relayIter) Next() (sqlengine.Row, error) {
	for {
		if it.pos < len(it.buf) {
			row := it.buf[it.pos]
			it.pos++
			return row, nil
		}
		if it.failed != nil {
			return nil, it.failed
		}
		if it.done {
			// The peer released its producer when the stream drained, but
			// the cursor entry lives until closed; close it now — after
			// the final chunk's rows have all been delivered — instead of
			// leaving it to the peer's idle TTL.
			it.closeRemote()
			return nil, io.EOF
		}
		chunk, err := it.fetch()
		if err != nil {
			it.failed = err
			return nil, err
		}
		if len(chunk.Rows) == 0 && !chunk.Done {
			// Our servers never send this (a fetch blocks until it has
			// rows or the end); a peer that does would otherwise spin this
			// loop into an unbounded RPC hammer.
			it.failed = fmt.Errorf("dataaccess: relay fetch from %s: protocol error: empty chunk without done", it.url)
			return nil, it.failed
		}
		if err := checkRowWidths(chunk.Rows, len(it.cols)); err != nil {
			it.failed = fmt.Errorf("dataaccess: relay fetch from %s: %w", it.url, err)
			return nil, it.failed
		}
		it.svc.obs.relayFetches.Inc()
		it.svc.obs.relayRows.Add(int64(len(chunk.Rows)))
		it.buf, it.pos = chunk.Rows, 0
		it.done = chunk.Done
	}
}

// decodeRelayChunk decodes a fetch/fetchb response straight off the wire.
func decodeRelayChunk(d *clarens.Decoder) (interface{}, error) {
	return DecodeChunkFrom(d)
}

// fetch pulls the next page off the remote cursor. Each page is one
// per-source operation: the configured SourceBudget bounds it
// individually, so a slowly *paced* relay (a client trickling through the
// local cursor registry) is never cut off, only a stuck one.
func (it *relayIter) fetch() (*Chunk, error) {
	cctx, cancel := it.svc.sourceCall(it.ctx)
	defer cancel()
	if it.binary {
		res, err := it.p.c.CallDecodeContext(cctx, "system.cursor.fetchb", decodeRelayChunk, it.id, int64(it.fetchN))
		var f *clarens.Fault
		switch {
		case err == nil:
			chunk, ok := res.(*Chunk)
			if !ok {
				return nil, fmt.Errorf("dataaccess: relay fetch from %s: empty response", it.url)
			}
			return chunk, nil
		case errors.As(err, &f) && f.Code == clarens.FaultNoMethod:
			// The peer lost the binary codec (restart without it, or a
			// stale capability answer): renegotiate as plain XML for this
			// and every later fetch.
			it.binary = false
			it.p.mu.Lock()
			it.p.codec = -1
			it.p.mu.Unlock()
			it.svc.obs.relayFallbacks.Inc()
		default:
			return nil, fmt.Errorf("dataaccess: relay fetch from %s: %w", it.url, err)
		}
	}
	res, err := it.p.c.CallDecodeContext(cctx, "system.cursor.fetch", decodeRelayChunk, it.id, int64(it.fetchN))
	if err != nil {
		return nil, fmt.Errorf("dataaccess: relay fetch from %s: %w", it.url, err)
	}
	chunk, ok := res.(*Chunk)
	if !ok {
		return nil, fmt.Errorf("dataaccess: relay fetch from %s: empty response", it.url)
	}
	return chunk, nil
}

// closeRemote releases the peer-side cursor, best-effort and at most
// once. It runs detached from the relay's context (which may already be
// cancelled) but bounded, so closing a relay to a dead peer returns
// promptly; if the close is lost the peer's idle-TTL reaper collects the
// cursor instead.
func (it *relayIter) closeRemote() {
	if it.remoteClosed {
		return
	}
	it.remoteClosed = true
	//lint:ignore ctxflow the close must survive the relay's already-cancelled request context; it is bounded by relayCloseTimeout and the peer's idle-TTL reaper backstops a lost close
	ctx, cancel := context.WithTimeout(context.Background(), relayCloseTimeout)
	defer cancel()
	it.p.c.CallContext(ctx, "system.cursor.close", it.id) //nolint:errcheck // best-effort release
}

// Close releases the relay: the remote cursor is closed (cancelling the
// peer's producing query mid-scan) and later Next calls are undefined, as
// for every RowIter. Idempotent.
func (it *relayIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.closeRemote()
	return nil
}
