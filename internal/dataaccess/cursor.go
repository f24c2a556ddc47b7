package dataaccess

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"gridrdb/internal/obsv"
	"gridrdb/internal/sqlengine"
)

// Cursor fetch-size bounds: a fetch never buffers more than MaxFetchSize
// rows at once, whatever the client asks for.
const (
	DefaultFetchSize = 256
	MaxFetchSize     = 8192
	// defaultCursorTTL is how long an idle cursor survives between
	// fetches before the reaper collects it (Config.CursorTTL overrides).
	defaultCursorTTL = 2 * time.Minute
)

// cursor is one open server-side result stream, paged by fetch calls.
type cursor struct {
	sr     *StreamResult
	cancel context.CancelFunc
	// onRelease runs exactly once when the cursor's resources are
	// released (close, reap, exhaustion, producer error): it returns the
	// session's cursor-quota reservation.
	onRelease func()
	// expires is the idle deadline in unix nanoseconds (0 = never). It is
	// atomic so the reaper can inspect a cursor whose mutex is held by a
	// long-running fetch without blocking behind it.
	expires atomic.Int64
	// fetching marks an in-flight fetch: the TTL applies to *idle*
	// cursors, so the reaper must not cancel a scan a client is actively
	// waiting on, however long one chunk takes to produce.
	fetching atomic.Bool

	// mu serializes stream consumption and release; a fetch holds it for
	// the whole chunk.
	mu     sync.Mutex
	done   bool // stream exhausted (resources already released)
	closed bool
}

// release cancels the producing query and closes the stream. The cancel
// runs before the mutex is taken: a fetch blocked in the backend holds
// the mutex, and the cancellation is exactly what unblocks it, so taking
// the lock first would deadlock close/reap behind a stuck producer.
func (c *cursor) release() {
	c.cancel()
	c.mu.Lock()
	c.releaseLocked()
	c.mu.Unlock()
}

// releaseLocked closes the stream once; c.mu must be held.
func (c *cursor) releaseLocked() {
	if c.closed {
		return
	}
	c.closed = true
	c.cancel()
	c.sr.Close()
	if c.onRelease != nil {
		c.onRelease()
	}
}

// cursorRegistry tracks open cursors and reaps the abandoned ones: a
// client that opens a cursor and walks away (crash, network partition,
// lost interest) must not pin a backend query and its connection forever.
type cursorRegistry struct {
	ttl time.Duration

	mu      sync.Mutex
	entries map[string]*cursor
	janitor bool          // reaper goroutine running
	stop    chan struct{} // closed by closeAll
	closed  bool

	// Lifetime counters live in the service's metrics registry so the
	// /metrics scrape and CursorStats read the same cells.
	reaped  *obsv.Counter
	opened  *obsv.Counter
	fetches *obsv.Counter
	rows    *obsv.Counter
}

func newCursorRegistry(ttl time.Duration, o *serviceObsv) *cursorRegistry {
	if ttl == 0 {
		ttl = defaultCursorTTL
	}
	return &cursorRegistry{
		ttl:     ttl,
		entries: make(map[string]*cursor),
		stop:    make(chan struct{}),
		reaped:  o.cursorsReaped,
		opened:  o.cursorsOpened,
		fetches: o.cursorFetches,
		rows:    o.cursorRows,
	}
}

// CursorInfo describes a freshly opened cursor.
type CursorInfo struct {
	ID      string
	Columns []string
	Route   Route
	Servers int
	// TTL is the idle lifetime between fetches (0 = never reaped).
	TTL time.Duration
}

// OpenCursor starts a streaming query and registers it as a server-side
// cursor for paged consumption via FetchCursor/CloseCursor (the engine of
// the system.cursor.* XML-RPC methods). The cursor outlives the opening
// RPC request, so its context inherits the request's values but not its
// cancellation; the producing query is cancelled when the cursor is
// closed or TTL-reaped.
func (s *Service) OpenCursor(ctx context.Context, sqlText string, params ...sqlengine.Value) (*CursorInfo, error) {
	reg := s.cursors
	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		return nil, fmt.Errorf("dataaccess: service is closed")
	}
	reg.mu.Unlock()

	// The session's cursor quota is charged before any backend work: a
	// denied open is pure bookkeeping. Every failure path below returns
	// the reservation; success hands it to the cursor, whose release
	// (close, reap, exhaustion, producer error) returns it exactly once.
	ci := callerFrom(ctx)
	if err := s.sessions.reserveCursor(ci); err != nil {
		return nil, err
	}

	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	// Until the cursor is registered, the opening request's death must
	// still cancel the producing query: a caller that abandons
	// cursor.open can never learn the cursor id, so an un-registered
	// producer would otherwise run detached — beyond even the TTL
	// reaper's reach — until the backend chose to return. Once registered
	// the watch is dropped and the cursor outlives its opening request,
	// guarded by the idle TTL.
	stopWatch := context.AfterFunc(ctx, cancel)
	sr, err := s.QueryStreamContext(cctx, sqlText, params...)
	if err != nil {
		stopWatch()
		cancel()
		s.sessions.releaseCursor(ci.Session)
		return nil, err
	}
	stopWatch()
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		cancel()
		sr.Close()
		s.sessions.releaseCursor(ci.Session)
		return nil, err
	}
	id := hex.EncodeToString(buf)
	cur := &cursor{sr: sr, cancel: cancel}
	if ci.Session != "" && s.sessions != nil {
		session := ci.Session
		cur.onRelease = func() { s.sessions.releaseCursor(session) }
	}
	if reg.ttl > 0 {
		cur.expires.Store(time.Now().Add(reg.ttl).UnixNano())
	}
	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		cur.release()
		return nil, fmt.Errorf("dataaccess: service is closed")
	}
	reg.entries[id] = cur
	reg.startJanitorLocked()
	reg.mu.Unlock()
	reg.opened.Inc()
	s.obs.log(ctx, slog.LevelDebug, "cursor opened",
		slog.String("cursor", id), slog.String("route", string(sr.Route)))
	info := &CursorInfo{ID: id, Columns: sr.Columns(), Route: sr.Route, Servers: sr.Servers}
	if reg.ttl > 0 {
		info.TTL = reg.ttl
	}
	return info, nil
}

// FetchCursor returns the cursor's next chunk of up to n rows (n <= 0
// selects DefaultFetchSize; n is clamped to MaxFetchSize) and whether the
// stream is exhausted. The chunk slice is the only buffering the fetch
// performs: the producer is pulled row by row, so server memory per
// cursor is bounded by the fetch size. Fetching past the end returns an
// empty done chunk; the backend resources were already released when the
// last row was delivered. A producer error closes the cursor.
func (s *Service) FetchCursor(id string, n int) ([]sqlengine.Row, bool, error) {
	if n <= 0 {
		n = DefaultFetchSize
	}
	if n > MaxFetchSize {
		n = MaxFetchSize
	}
	reg := s.cursors
	reg.mu.Lock()
	cur, ok := reg.entries[id]
	reg.mu.Unlock()
	if !ok {
		return nil, false, fmt.Errorf("dataaccess: no cursor %q (closed, expired or never opened)", id)
	}
	cur.fetching.Store(true)
	defer cur.fetching.Store(false)
	cur.mu.Lock()
	defer cur.mu.Unlock()
	if cur.closed && !cur.done {
		return nil, false, fmt.Errorf("dataaccess: cursor %q is closed", id)
	}
	if cur.done {
		return nil, true, nil
	}
	var rows []sqlengine.Row
	for len(rows) < n {
		row, err := cur.sr.Next()
		if err == io.EOF {
			// Exhausted: release the producer now rather than waiting for
			// the client's close call, but keep the registry entry so a
			// trailing fetch sees done=true instead of "no cursor".
			cur.done = true
			cur.releaseLocked()
			break
		}
		if err != nil {
			cur.releaseLocked()
			reg.remove(id)
			return nil, false, err
		}
		rows = append(rows, row)
	}
	if reg.ttl > 0 {
		cur.expires.Store(time.Now().Add(reg.ttl).UnixNano())
	}
	reg.fetches.Inc()
	reg.rows.Add(int64(len(rows)))
	return rows, cur.done, nil
}

// CloseCursor cancels the cursor's producing query, releases its
// resources and forgets it. It reports whether the cursor existed;
// closing twice (or closing an expired cursor) is a no-op, not an error.
func (s *Service) CloseCursor(id string) bool {
	reg := s.cursors
	reg.mu.Lock()
	cur, ok := reg.entries[id]
	delete(reg.entries, id)
	reg.mu.Unlock()
	if !ok {
		return false
	}
	cur.release()
	return true
}

// CursorCount reports the number of registered cursors (exhausted-but-
// unclosed ones included).
func (s *Service) CursorCount() int {
	s.cursors.mu.Lock()
	defer s.cursors.mu.Unlock()
	return len(s.cursors.entries)
}

// CursorStats is the operational snapshot behind system.cursorstats.
type CursorStats struct {
	// Open counts currently registered cursors (exhausted-but-unclosed
	// ones included).
	Open int
	// Opened / Fetches / RowsFetched are lifetime totals.
	Opened      int64
	Fetches     int64
	RowsFetched int64
	// Reaped counts cursors the idle-TTL janitor collected.
	Reaped int64
	// RelayOpens / RelayFetches / RelayRows count this server's *outbound*
	// cursor relays: remote cursors it opened on peers for federated
	// streams, the pages it pulled off them, and the rows those pages
	// carried. RelayFallbacks counts mid-stream downgrades from the binary
	// fetchb framing to plain XML fetch (a peer that lost the codec).
	RelayOpens     int64
	RelayFetches   int64
	RelayRows      int64
	RelayFallbacks int64
}

// CursorStats snapshots the cursor subsystem's counters (inbound cursors
// served to clients and peers, plus outbound relays onto peers).
func (s *Service) CursorStats() CursorStats {
	r := s.cursors
	return CursorStats{
		Open:           s.CursorCount(),
		Opened:         r.opened.Value(),
		Fetches:        r.fetches.Value(),
		RowsFetched:    r.rows.Value(),
		Reaped:         r.reaped.Value(),
		RelayOpens:     s.obs.relayOpens.Value(),
		RelayFetches:   s.obs.relayFetches.Value(),
		RelayRows:      s.obs.relayRows.Value(),
		RelayFallbacks: s.obs.relayFallbacks.Value(),
	}
}

func (r *cursorRegistry) remove(id string) {
	r.mu.Lock()
	delete(r.entries, id)
	r.mu.Unlock()
}

// reap releases and forgets every cursor idle past its deadline.
func (r *cursorRegistry) reap(now time.Time) int {
	if r.ttl <= 0 {
		return 0
	}
	var victims []*cursor
	r.mu.Lock()
	for id, cur := range r.entries {
		if cur.fetching.Load() {
			continue // a client is actively waiting on this scan
		}
		if exp := cur.expires.Load(); exp != 0 && now.UnixNano() > exp {
			victims = append(victims, cur)
			delete(r.entries, id)
		}
	}
	r.mu.Unlock()
	// Count before releasing: a watcher that sees a victim's backend
	// closed must also see it counted.
	r.reaped.Add(int64(len(victims)))
	for _, cur := range victims {
		cur.release()
	}
	return len(victims)
}

// startJanitorLocked launches the background reaper on first use; the
// registry mutex must be held. Services that never open a cursor never
// pay for the goroutine.
func (r *cursorRegistry) startJanitorLocked() {
	if r.janitor || r.ttl <= 0 || r.closed {
		return
	}
	r.janitor = true
	interval := r.ttl / 2
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case now := <-ticker.C:
				r.reap(now)
			}
		}
	}()
}

// closeAll stops the janitor and releases every open cursor (Service.Close).
func (r *cursorRegistry) closeAll() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	victims := make([]*cursor, 0, len(r.entries))
	for _, cur := range r.entries {
		victims = append(victims, cur)
	}
	r.entries = make(map[string]*cursor)
	r.mu.Unlock()
	for _, cur := range victims {
		cur.release()
	}
}
