package dataaccess

// Observability for the routing stack: every query gets an id and a
// track — per-phase timings, route class, row/byte counts — begun at the
// service edge and finished when the answer (or its stream) completes.
// The track rides in the context, so it crosses the cache's singleflight
// boundary (qcache.Do runs the computation on a detached goroutine that
// inherits the caller's context values) and is visible to every routing
// helper without threading a parameter through the stack; its mutable
// fields are atomics because an abandoned singleflight leader keeps
// writing after the edge has read.

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"gridrdb/internal/obsv"
	"gridrdb/internal/qcache"
	"gridrdb/internal/unity"
)

// Route classes for the latency histograms and per-route counters: the
// cache hit, the two local modules (with unity split by plan shape), the
// whole-query forward/relay, and the decomposed plan with loads at peers.
const (
	classCache = iota
	classRAL
	classUnityPush
	classUnityDecomp
	classRemote
	classMixed
	classUnknown // defensive: a successful query that set no class
	nClasses
)

var classNames = [nClasses]string{
	"cache", "pool-ral", "unity-pushdown", "unity-decomposed", "remote", "mixed", "unknown",
}

// defaultSlowLogSize bounds the slow-query ring when Config.SlowQueryLogSize
// is zero.
const defaultSlowLogSize = 64

// serviceObsv is the per-service observability state: the metric
// registry (always live, so /metrics and system.metrics work even with
// per-query tracking disabled), the structured logger, and the
// slow-query ring.
type serviceObsv struct {
	// enabled gates the per-query hot path (tracks, histograms, phase
	// timing, slow capture); Config.DisableObsv turns it off.
	enabled bool
	reg     *obsv.Registry
	logger  *slog.Logger
	slow    *obsv.SlowLog
	// slowThreshold admits a query to the slow log (0 = capture off).
	slowThreshold time.Duration

	queries  [nClasses]*obsv.Counter
	latency  [nClasses]*obsv.Histogram
	inflight *obsv.Gauge
	errors   *obsv.Counter
	// rowsOut counts rows delivered to consumers (streamed or
	// materialized); bytesOut counts estimated resident bytes, on the
	// streaming paths only (the materialized path would need an extra
	// pass to size its result).
	rowsOut  *obsv.Counter
	bytesOut *obsv.Counter

	// Cursor-registry and outbound-relay lifetime counters: previously
	// bare atomics on Service/cursorRegistry, now registry-owned so the
	// metrics endpoint, cursorstats and the race audit share one copy.
	cursorsOpened *obsv.Counter
	cursorFetches *obsv.Counter
	cursorRows    *obsv.Counter
	cursorsReaped *obsv.Counter

	relayOpens     *obsv.Counter
	relayFetches   *obsv.Counter
	relayRows      *obsv.Counter
	relayFallbacks *obsv.Counter

	// Admission-gate counters: how arrivals fared at the in-flight gate
	// (admitted straight away / after queueing / shed), how long queued
	// admissions waited, and per-session quota denials.
	admImmediate   *obsv.Counter
	admQueued      *obsv.Counter
	admShedFull    *obsv.Counter
	admShedTimeout *obsv.Counter
	admCancelled   *obsv.Counter
	admWait        *obsv.Histogram
	quotaCursors   *obsv.Counter
	quotaBytes     *obsv.Counter

	// Streaming-operator counters: decomposed/mixed queries served, and the
	// spill telemetry of the buffering operators.
	streamPipelined *obsv.Counter
	spilledQueries  *obsv.Counter
	spillPartitions *obsv.Counter
	spillRuns       *obsv.Counter
	spillBytes      *obsv.Counter
	spillSeconds    *obsv.Histogram
}

// newServiceObsv builds the registry and registers every metric. s is
// captured by the scrape-time collectors only; its remaining fields may
// still be nil at registration.
func newServiceObsv(cfg Config, s *Service) *serviceObsv {
	o := &serviceObsv{
		enabled: !cfg.DisableObsv,
		reg:     obsv.NewRegistry(),
		logger:  cfg.Logger,
	}
	if o.logger == nil {
		o.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.SlowQueryThreshold > 0 {
		size := cfg.SlowQueryLogSize
		if size <= 0 {
			size = defaultSlowLogSize
		}
		o.slow = obsv.NewSlowLog(size)
		o.slowThreshold = cfg.SlowQueryThreshold
	}
	r := o.reg
	for c := 0; c < nClasses; c++ {
		lb := obsv.Label{Key: "route", Value: classNames[c]}
		o.queries[c] = r.Counter("gridrdb_queries_total",
			"Completed queries by route class.", lb)
		o.latency[c] = r.Histogram("gridrdb_query_duration_seconds",
			"End-to-end query latency by route class (streamed queries: until the stream drains).", nil, lb)
	}
	o.inflight = r.Gauge("gridrdb_queries_inflight",
		"Queries currently executing or streaming.")
	o.errors = r.Counter("gridrdb_query_errors_total",
		"Queries that failed before completing.")
	o.rowsOut = r.Counter("gridrdb_rows_streamed_total",
		"Rows delivered to query consumers.")
	o.bytesOut = r.Counter("gridrdb_bytes_streamed_total",
		"Estimated resident bytes delivered on the streaming paths.")
	r.CounterFunc("gridrdb_slow_queries_total",
		"Queries that exceeded the slow-query threshold.", func() int64 {
			if o.slow == nil {
				return 0
			}
			return o.slow.Total()
		})

	o.cursorsOpened = r.Counter("gridrdb_cursors_opened_total", "Server-side cursors opened.")
	o.cursorFetches = r.Counter("gridrdb_cursor_fetches_total", "Cursor fetch calls served.")
	o.cursorRows = r.Counter("gridrdb_cursor_rows_total", "Rows delivered through cursor fetches.")
	o.cursorsReaped = r.Counter("gridrdb_cursors_reaped_total", "Idle cursors collected by the TTL reaper.")
	r.GaugeFunc("gridrdb_cursors_open", "Currently registered server-side cursors.", func() int64 {
		if s.cursors == nil {
			return 0
		}
		return int64(s.CursorCount())
	})

	o.relayOpens = r.Counter("gridrdb_relay_opens_total", "Outbound cursor relays opened on peers.")
	o.relayFetches = r.Counter("gridrdb_relay_fetches_total", "Pages pulled off remote relay cursors.")
	o.relayRows = r.Counter("gridrdb_relay_rows_total", "Rows relayed from remote cursors.")
	o.relayFallbacks = r.Counter("gridrdb_relay_fallbacks_total", "Mid-stream downgrades from binary to plain relay fetches.")

	for _, out := range []struct {
		cell  **obsv.Counter
		value string
	}{{&o.admImmediate, "immediate"}, {&o.admQueued, "queued"}} {
		*out.cell = r.Counter("gridrdb_admission_admitted_total",
			"Queries admitted through the in-flight gate, by how.", obsv.Label{Key: "outcome", Value: out.value})
	}
	for _, sh := range []struct {
		cell  **obsv.Counter
		value string
	}{{&o.admShedFull, "queue_full"}, {&o.admShedTimeout, "queue_timeout"}} {
		*sh.cell = r.Counter("gridrdb_admission_shed_total",
			"Queries shed by the admission gate, by reason.", obsv.Label{Key: "reason", Value: sh.value})
	}
	o.admCancelled = r.Counter("gridrdb_admission_cancelled_total",
		"Queued queries whose own context ended before a slot freed.")
	o.admWait = r.Histogram("gridrdb_admission_wait_seconds",
		"Queue wait of queries admitted after queueing.", nil)
	for _, q := range []struct {
		cell  **obsv.Counter
		value string
	}{{&o.quotaCursors, "cursors"}, {&o.quotaBytes, "bytes"}} {
		*q.cell = r.Counter("gridrdb_admission_quota_denials_total",
			"Per-session quota denials, by quota.", obsv.Label{Key: "quota", Value: q.value})
	}
	r.GaugeFunc("gridrdb_admission_inflight", "Queries currently holding an admission slot.", func() int64 {
		a := s.admit
		if a == nil {
			return 0
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		return int64(a.inflight)
	})
	r.GaugeFunc("gridrdb_admission_queued", "Queries currently waiting for an admission slot.", func() int64 {
		a := s.admit
		if a == nil {
			return 0
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		return int64(a.queued)
	})

	o.streamPipelined = r.Counter("gridrdb_stream_pipelined_total",
		"Decomposed/mixed queries (materialized or streamed) served by the pipelined operators.")
	o.spilledQueries = r.Counter("gridrdb_spilled_queries_total",
		"Pipelined queries whose buffering operators spilled to disk.")
	o.spillPartitions = r.Counter("gridrdb_spill_partitions_total",
		"Partition files written by Grace hash-join builds.")
	o.spillRuns = r.Counter("gridrdb_spill_runs_total",
		"Sorted run files written by external sorts.")
	o.spillBytes = r.Counter("gridrdb_spill_bytes_total",
		"Bytes written to operator spill files.")
	o.spillSeconds = r.Histogram("gridrdb_spill_seconds",
		"Per-query time spent writing and reading operator spill files.", nil)

	// Scrape-time views over pre-existing synchronized stats: the cache,
	// the routing counters and the federation keep their own atomics,
	// and the registry reads them when scraped.
	cacheCounter := func(name, help string, get func(st qcache.Stats) int64) {
		r.CounterFunc(name, help, func() int64 { return get(s.CacheStats()) })
	}
	cacheCounter("gridrdb_cache_hits_total", "Query-cache hits.", func(st qcache.Stats) int64 { return st.Hits })
	cacheCounter("gridrdb_cache_misses_total", "Query-cache misses.", func(st qcache.Stats) int64 { return st.Misses })
	cacheCounter("gridrdb_cache_evictions_total", "Query-cache LRU evictions.", func(st qcache.Stats) int64 { return st.Evictions })
	cacheCounter("gridrdb_cache_expirations_total", "Query-cache TTL expirations.", func(st qcache.Stats) int64 { return st.Expirations })
	cacheCounter("gridrdb_cache_invalidations_total", "Query-cache dependency invalidations.", func(st qcache.Stats) int64 { return st.Invalidations })
	cacheCounter("gridrdb_cache_coalesced_total", "Queries coalesced onto an in-flight computation.", func(st qcache.Stats) int64 { return st.Coalesced })
	cacheCounter("gridrdb_cache_rejected_total", "Results refused cache admission.", func(st qcache.Stats) int64 { return st.Rejected })
	r.GaugeFunc("gridrdb_cache_entries", "Resident query-cache entries.", func() int64 { return int64(s.CacheStats().Entries) })
	r.GaugeFunc("gridrdb_cache_bytes", "Estimated resident query-cache bytes.", func() int64 { return s.CacheStats().Bytes })

	r.CounterFunc("gridrdb_rls_lookups_total", "RLS table lookups issued.", func() int64 { return s.stats.RLSLookups.Load() })
	r.CounterFunc("gridrdb_schema_lookups_total", "Peer table-column lookups issued for mixed plans.", func() int64 { return s.stats.SchemaLookups.Load() })
	r.CounterFunc("gridrdb_bin_forwards_total", "Remote forwards that used the binary row framing.", func() int64 { return s.stats.BinForwards.Load() })

	r.CounterFunc("gridrdb_unity_queries_total", "Federation queries executed.", func() int64 { q, _, _ := s.fed.Stats(); return q })
	r.CounterFunc("gridrdb_unity_subqueries_total", "Federation sub-queries issued.", func() int64 { _, sq, _ := s.fed.Stats(); return sq })
	r.CounterFunc("gridrdb_unity_pushdowns_total", "Federation whole-query pushdowns.", func() int64 { _, _, p := s.fed.Stats(); return p })
	return o
}

// log emits one structured record with the query id from ctx appended.
// The Enabled check keeps disabled handlers (the default DiscardHandler)
// off the hot path.
func (o *serviceObsv) log(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	if o == nil || !o.logger.Enabled(ctx, level) {
		return
	}
	attrs = append(attrs, slog.String("query_id", obsv.QueryID(ctx)))
	o.logger.LogAttrs(ctx, level, msg, attrs...)
}

// ---- per-query tracks ----

type trackKey struct{}

// trackFrom returns the query track carried by ctx, or nil.
func trackFrom(ctx context.Context) *qtrack {
	t, _ := ctx.Value(trackKey{}).(*qtrack)
	return t
}

// qtrack accumulates one query's observability state. All mutable fields
// are atomics: the routing core may run on qcache's detached
// singleflight goroutine while the edge (or a stream consumer) reads.
type qtrack struct {
	svc     *Service
	id      string
	sqlText string
	start   time.Time

	class                                 atomic.Int32
	parseNs, routeNs, backendNs, streamNs atomic.Int64
	streamStart                           atomic.Int64 // unix nanos; 0 = not streaming
	rows, bytes                           atomic.Int64
	// admOutcome / admWaitNs record how the query fared at the admission
	// gate (admitNone when the gate is off or was never consulted).
	admOutcome atomic.Int32
	admWaitNs  atomic.Int64

	// dec captures the routing decision for lazy explain assembly; only a
	// query slow enough for the ring pays to describe itself.
	dec atomic.Pointer[decision]
	// sx captures how a decomposed or mixed execution ran (operator label,
	// spill telemetry); its Stats are only read at finish, when the stream
	// has drained or been closed and the operator counters are final.
	sx atomic.Pointer[unity.StreamExec]

	done atomic.Bool
}

// beginTrack assigns the query id and starts the track, attaching both
// to the returned context. With observability disabled it returns the
// context untouched and a nil track (every track method is nil-safe).
func (s *Service) beginTrack(ctx context.Context, sqlText string) (context.Context, *qtrack) {
	o := s.obs
	if !o.enabled {
		return ctx, nil
	}
	ctx, id := obsv.EnsureQueryID(ctx)
	t := &qtrack{svc: s, id: id, sqlText: sqlText, start: time.Now()}
	t.class.Store(classUnknown)
	o.inflight.Add(1)
	return context.WithValue(ctx, trackKey{}, t), t
}

// now returns the wall clock for phase timing, or the zero time on a nil
// track so the disabled path never reads the clock.
func (t *qtrack) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *qtrack) addParse(since time.Time) {
	if t != nil {
		t.parseNs.Add(int64(time.Since(since)))
	}
}

func (t *qtrack) addRoute(since time.Time) {
	if t != nil {
		t.routeNs.Add(int64(time.Since(since)))
	}
}

func (t *qtrack) addBackend(since time.Time) {
	if t != nil {
		t.backendNs.Add(int64(time.Since(since)))
	}
}

func (t *qtrack) setClass(c int32) {
	if t != nil {
		t.class.Store(c)
	}
}

func (t *qtrack) noteDecision(d *decision) {
	if t != nil {
		t.dec.Store(d)
		t.class.Store(d.class)
	}
}

func (t *qtrack) noteRows(n int64) {
	if t != nil {
		t.rows.Add(n)
	}
}

// delivered counts one streamed row of n bytes.
func (t *qtrack) delivered(n int64) {
	if t != nil {
		t.rows.Add(1)
		t.bytes.Add(n)
	}
}

func (t *qtrack) noteStreamExec(ex *unity.StreamExec) {
	if t != nil && ex != nil {
		t.sx.Store(ex)
	}
}

func (t *qtrack) noteAdmission(outcome int32, waited time.Duration) {
	if t != nil {
		t.admOutcome.Store(outcome)
		t.admWaitNs.Store(int64(waited))
	}
}

// admissionLabel renders a gate outcome for explain maps, slow-query
// records and completion logs ("" when the gate was not consulted).
func admissionLabel(outcome int32, waited time.Duration) string {
	switch outcome {
	case admitImmediate:
		return "immediate"
	case admitQueued:
		return fmt.Sprintf("queued %dms", waited.Milliseconds())
	default:
		return ""
	}
}

// beginStream marks the hand-off from routing to consumer-paced
// delivery; finish turns it into the stream phase.
func (t *qtrack) beginStream() {
	if t != nil {
		t.streamStart.Store(time.Now().UnixNano())
	}
}

// finish closes the track exactly once: the route-class counter and
// latency histogram, the delivery counters, the completion log record,
// and — past the threshold — the slow-query capture.
func (t *qtrack) finish(err error) {
	if t == nil || !t.done.CompareAndSwap(false, true) {
		return
	}
	o := t.svc.obs
	o.inflight.Add(-1)
	dur := time.Since(t.start)
	if ss := t.streamStart.Load(); ss > 0 {
		t.streamNs.Store(time.Now().UnixNano() - ss)
	}
	//lint:ignore ctxflow completion logging outlives the request: the track finishes after the caller's context is cancelled, and log emission must not inherit that cancellation
	ctx := obsv.WithQueryID(context.Background(), t.id)
	// Spill telemetry is charged whether the query succeeded or not: the
	// disk traffic happened either way, and the stats are final here (the
	// stream has drained, failed, or been closed).
	sx := t.sx.Load()
	if sx != nil {
		if st := sx.Stats; st != nil && st.Spilled {
			o.spilledQueries.Inc()
			o.spillPartitions.Add(st.SpillPartitions)
			o.spillRuns.Add(st.SpillRuns)
			o.spillBytes.Add(st.SpillBytes)
			o.spillSeconds.ObserveDuration(time.Duration(st.SpillNanos))
		}
	}
	if err != nil {
		o.errors.Inc()
		o.log(ctx, slog.LevelWarn, "query failed",
			slog.Duration("elapsed", dur),
			slog.String("error", err.Error()))
		return
	}
	c := t.class.Load()
	if c < 0 || c >= nClasses {
		c = classUnknown
	}
	o.queries[c].Inc()
	o.latency[c].ObserveDuration(dur)
	rows, bytes := t.rows.Load(), t.bytes.Load()
	o.rowsOut.Add(rows)
	o.bytesOut.Add(bytes)
	o.log(ctx, slog.LevelInfo, "query done",
		slog.String("route", classNames[c]),
		slog.Duration("elapsed", dur),
		slog.Int64("rows", rows))
	if o.slow != nil && dur >= o.slowThreshold {
		em := t.svc.explainMap(classNames[c], t.dec.Load(), c == classCache)
		// The admission outcome makes overload incidents debuggable from
		// the slow ring: "queued 1400ms" on a slow query says the time
		// went to the gate, not the backend.
		if adm := admissionLabel(t.admOutcome.Load(), time.Duration(t.admWaitNs.Load())); adm != "" {
			em["admission"] = adm
		}
		if sx != nil {
			// The executed operator, and a spilled query's runtime spill
			// numbers.
			em["operator"] = sx.Operator
			if st := sx.Stats; st != nil && st.Spilled {
				em["spill"] = map[string]interface{}{
					"partitions": st.SpillPartitions,
					"runs":       st.SpillRuns,
					"bytes":      st.SpillBytes,
					"nanos":      st.SpillNanos,
				}
			}
		}
		e := obsv.SlowEntry{
			QueryID:      t.id,
			SQL:          t.sqlText,
			Route:        classNames[c],
			Start:        t.start,
			Duration:     dur,
			PhaseParse:   time.Duration(t.parseNs.Load()),
			PhaseRoute:   time.Duration(t.routeNs.Load()),
			PhaseBackend: time.Duration(t.backendNs.Load()),
			PhaseStream:  time.Duration(t.streamNs.Load()),
			Rows:         rows,
			Bytes:        bytes,
			Explain:      em,
		}
		o.slow.Record(e)
		o.log(ctx, slog.LevelWarn, "slow query",
			slog.String("route", classNames[c]),
			slog.Duration("elapsed", dur),
			slog.String("sql", t.sqlText))
	}
}

// ---- service surfaces ----

// Metrics exposes the service's metric registry (the /metrics endpoint
// and system.metrics read from it).
func (s *Service) Metrics() *obsv.Registry { return s.obs.reg }

// SlowQueries snapshots the slow-query ring, most recent first (empty
// when no threshold is configured).
func (s *Service) SlowQueries() []obsv.SlowEntry {
	if s.obs.slow == nil {
		return nil
	}
	return s.obs.slow.Snapshot()
}

// SlowQueryTotal counts queries ever admitted to the slow log.
func (s *Service) SlowQueryTotal() int64 {
	if s.obs.slow == nil {
		return 0
	}
	return s.obs.slow.Total()
}

// SlowQueryCap reports the slow ring's retention bound (0 = capture off).
func (s *Service) SlowQueryCap() int {
	if s.obs.slow == nil {
		return 0
	}
	return s.obs.slow.Cap()
}
