package main

// The load side: closed-loop clients (Clarens callers each wait for their
// reply) speaking XML-RPC over loopback HTTP to the front server, one
// connection each, pulling ops from one shared cyclic sequence and
// checking every answer against the oracle.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/sqlengine"
)

// nClients is the closed-loop client count: one per core of the 2-core
// box the benchmark is sized for, which the two servers share.
const nClients = 2

// checksumEvery is how often, past warm-up, an op's checksum is verified
// in addition to its row count.
const checksumEvery = 64

// bench is one prepared run: the deployment, the workload's plan, and the
// load clients.
type bench struct {
	w *workload
	d *deployment
	p *plan

	clients []*clarens.Client
	// next is the shared position in the op sequence; it keeps advancing
	// from warm-up into the window, so no op repeats sooner than a full
	// pass of the sequence.
	next atomic.Int64
	// barrier makes a refresh run alone: reads hold it shared, the refresh
	// exclusively, so every read sees a fully loaded table and has one
	// exact expected answer.
	barrier sync.RWMutex
}

func newClients(url string) []*clarens.Client {
	out := make([]*clarens.Client, nClients)
	for i := range out {
		c := clarens.NewClient(url)
		c.HTTP = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}}
		out[i] = c
	}
	return out
}

func (b *bench) close() {
	for _, c := range b.clients {
		c.HTTP.CloseIdleConnections()
	}
	b.d.close()
}

func decodeResult(d *clarens.Decoder) (interface{}, error) { return dataaccess.DecodeResultFrom(d) }
func decodeChunk(d *clarens.Decoder) (interface{}, error)  { return dataaccess.DecodeChunkFrom(d) }

// opResult is what one executed read delivered: the rows' count and
// checksum, and when the first row had been decoded.
type opResult struct {
	got      answer
	firstRow time.Time
}

// execQuery runs a materialized dataaccess.query.
func execQuery(ctx context.Context, c *clarens.Client, sql string, checksum bool) (opResult, error) {
	res, err := c.CallDecodeContext(ctx, "dataaccess.query", decodeResult, sql)
	if err != nil {
		return opResult{}, err
	}
	rs, ok := res.(*sqlengine.ResultSet)
	if !ok {
		return opResult{}, fmt.Errorf("dataaccess.query: empty response")
	}
	// A materialized answer arrives whole: first row and last together.
	r := opResult{firstRow: time.Now()}
	r.got.add(rs.Rows, checksum)
	return r, nil
}

// execScan pages a server-side cursor to the end and closes it.
func execScan(ctx context.Context, c *clarens.Client, sql string, checksum bool) (opResult, error) {
	res, err := c.CallContext(ctx, "system.cursor.open", sql)
	if err != nil {
		return opResult{}, err
	}
	info, _ := res.(map[string]interface{})
	id, ok := info["cursor"].(string)
	if !ok {
		return opResult{}, fmt.Errorf("system.cursor.open: no cursor id in %v", res)
	}
	var r opResult
	for {
		res, err := c.CallDecodeContext(ctx, "system.cursor.fetch", decodeChunk, id, int64(scanPage))
		if err != nil {
			c.CallContext(ctx, "system.cursor.close", id)
			return opResult{}, err
		}
		chunk, ok := res.(*dataaccess.Chunk)
		if !ok {
			return opResult{}, fmt.Errorf("system.cursor.fetch: empty response")
		}
		if r.firstRow.IsZero() {
			r.firstRow = time.Now()
		}
		r.got.add(chunk.Rows, checksum)
		if chunk.Done {
			break
		}
	}
	if _, err := c.CallContext(ctx, "system.cursor.close", id); err != nil {
		return opResult{}, err
	}
	return r, nil
}

// sample is one correctly answered op.
type sample struct {
	start, end time.Time
	first      time.Duration // start to first row decoded (reads)
	rows       int
	refresh    bool
}

// tally is one client's record of a phase.
type tally struct {
	attempted, failed int64
	samples           []sample
	firstErr          error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.samples = append(t.samples, o.samples...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// step executes the op at sequence position idx on client c and records
// it. A faulted or wrong answer is a failed op and leaves no latency
// sample.
func (b *bench) step(ctx context.Context, c *clarens.Client, idx int64, full bool, t *tally) {
	o := b.p.seq[idx%int64(len(b.p.seq))]
	t.attempted++
	if o.kind == opRefresh {
		b.barrier.Lock()
		start := time.Now()
		err := b.d.refreshHot()
		end := time.Now()
		b.barrier.Unlock()
		if err != nil {
			t.fail(fmt.Errorf("refresh: %w", err))
			return
		}
		t.samples = append(t.samples, sample{start: start, end: end, refresh: true})
		return
	}
	sql := b.p.queries[o.query]
	checksum := full || idx%checksumEvery == 0
	b.barrier.RLock()
	var (
		r   opResult
		err error
	)
	start := time.Now()
	if o.kind == opScan {
		r, err = execScan(ctx, c, sql, checksum)
	} else {
		r, err = execQuery(ctx, c, sql, checksum)
	}
	end := time.Now()
	b.barrier.RUnlock()
	if err != nil {
		t.fail(fmt.Errorf("%s: %w", sql, err))
		return
	}
	want := b.p.answers[o.query]
	if r.got.rows != want.rows {
		t.fail(fmt.Errorf("%s: %d rows, oracle says %d", sql, r.got.rows, want.rows))
		return
	}
	if checksum && r.got.sum != want.sum {
		t.fail(fmt.Errorf("%s: row checksum %016x, oracle says %016x", sql, r.got.sum, want.sum))
		return
	}
	t.samples = append(t.samples, sample{start: start, end: end, first: r.firstRow.Sub(start), rows: r.got.rows})
}

// drive runs the clients closed-loop until more() says stop and every
// reply is in; full turns on the checksum for every op.
func (b *bench) drive(ctx context.Context, clients []*clarens.Client, full bool, more func(done int64) bool) *tally {
	tallies := make([]tally, len(clients))
	var issued atomic.Int64
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *clarens.Client, t *tally) {
			defer wg.Done()
			for more(issued.Add(1) - 1) {
				b.step(ctx, c, b.next.Add(1)-1, full, t)
			}
		}(c, &tallies[i])
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

// warmUp runs the workload's fixed warm-up count with every answer fully
// checked.
func (b *bench) warmUp(ctx context.Context) error {
	n := int64(b.w.warmup)
	t := b.drive(ctx, b.clients, true, func(done int64) bool { return done < n })
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed, first: %w", t.failed, t.attempted, t.firstErr)
	}
	return nil
}

// window runs the clients for the given wall time.
func (b *bench) window(ctx context.Context, clients []*clarens.Client, d time.Duration) *tally {
	deadline := time.Now().Add(d)
	return b.drive(ctx, clients, false, func(int64) bool { return time.Now().Before(deadline) })
}

// explainIs asserts one field of system.explain for the workload's first
// query, asked over the wire like any client would; want may be a prefix
// (operator labels carry a build side).
func (b *bench) explainIs(ctx context.Context, field, want string) error {
	res, err := b.clients[0].CallContext(ctx, "system.explain", b.p.queries[0])
	if err != nil {
		return fmt.Errorf("system.explain: %w", err)
	}
	m, _ := res.(map[string]interface{})
	got, _ := m[field].(string)
	if len(got) < len(want) || got[:len(want)] != want {
		return fmt.Errorf("system.explain %s = %q, want %q", field, got, want)
	}
	return nil
}
