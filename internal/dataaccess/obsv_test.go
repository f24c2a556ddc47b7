package dataaccess

// Tests for the observability stack: the Prometheus endpoint under
// concurrent mixed traffic, slow-ring bounds and eviction order at the
// service level, explain-versus-execute route agreement, and query-id
// propagation across a relay hop (both servers log the same id).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqlengine"
)

// obsTestbed builds a two-mart service (one POOL-supported MySQL mart,
// one unity-routed MS-SQL mart) behind a clarens front end with the
// /metrics endpoint wired.
func obsTestbed(t *testing.T, cfg Config, tag string) (*Service, string) {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	_, mySpec := mkMart(t, "mart_obs_my_"+tag, sqlengine.DialectMySQL, "events", 20)
	_, msSpec := mkMart(t, "mart_obs_ms_"+tag, sqlengine.DialectMSSQL, "runsinfo", 8)
	addMart(t, s, "mart_obs_my_"+tag, mySpec, "gridsql-mysql")
	addMart(t, s, "mart_obs_ms_"+tag, msSpec, "gridsql-mssql")
	srv := clarens.NewServer(true)
	s.RegisterMethods(srv)
	srv.SetMetrics(s.Metrics().WritePrometheus)
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	s.SetURL(url)
	return s, url
}

// TestMetricsEndpointConcurrentTraffic scrapes /metrics while mixed
// traffic (RAL, unity, streamed, cached) runs, then checks the final
// exposition carries per-route counters and latency histograms.
func TestMetricsEndpointConcurrentTraffic(t *testing.T) {
	s, url := obsTestbed(t, Config{Name: "obs-mix", CacheSize: 32}, "mix")

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.QueryContext(context.Background(), "SELECT event_id, e_tot FROM events WHERE run = 101"); err != nil {
					t.Errorf("ral query: %v", err)
					return
				}
				if _, err := s.QueryContext(context.Background(), fmt.Sprintf("SELECT event_id FROM runsinfo WHERE run = %d", 100+i%2)); err != nil {
					t.Errorf("unity query: %v", err)
					return
				}
				sr, err := s.QueryStreamContext(context.Background(), "SELECT event_id FROM events")
				if err != nil {
					t.Errorf("stream: %v", err)
					return
				}
				if err := sr.ForEach(func(sqlengine.Row) error { return nil }); err != nil {
					t.Errorf("stream drain: %v", err)
					return
				}
			}
		}(w)
	}
	// Scrape concurrently with the traffic: the endpoint must stay
	// well-formed mid-flight, not just at rest.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 10; i++ {
			resp, err := http.Get(url + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-scrapeDone

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`gridrdb_queries_total{route="pool-ral"}`,
		`gridrdb_queries_total{route="unity-pushdown"}`,
		`gridrdb_query_duration_seconds_bucket{route="pool-ral",le="+Inf"}`,
		`gridrdb_query_duration_seconds_sum{route="pool-ral"}`,
		"gridrdb_queries_inflight 0",
		"gridrdb_rows_streamed_total",
		"gridrdb_cache_hits_total",
		"gridrdb_cursors_open 0",
		"# TYPE gridrdb_query_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Route counters must account for every query: 4 workers x 25 iters x
	// (1 RAL + 1 unity + 1 streamed RAL), minus whatever the cache served.
	snap := s.Metrics().Snapshot()
	total := int64(0)
	for k, v := range snap {
		if strings.HasPrefix(k, "gridrdb_queries_total{") {
			total += v.(int64)
		}
	}
	if want := int64(workers * perWorker * 3); total != want {
		t.Errorf("sum of per-route query counters = %d, want %d", total, want)
	}
}

// TestSlowRingBoundsAndEviction checks the slow log at the service level:
// a 3-deep ring over a 1ns threshold keeps only the three most recent
// queries, newest first, while the lifetime total keeps counting.
func TestSlowRingBoundsAndEviction(t *testing.T) {
	s, _ := obsTestbed(t, Config{
		Name:               "obs-slow",
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLogSize:   3,
	}, "slow")

	for i := 1; i <= 5; i++ {
		if _, err := s.QueryContext(context.Background(), fmt.Sprintf("SELECT event_id FROM events WHERE event_id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.SlowQueryCap(); got != 3 {
		t.Fatalf("cap = %d, want 3", got)
	}
	if got := s.SlowQueryTotal(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	entries := s.SlowQueries()
	if len(entries) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(entries))
	}
	for i, wantID := range []int{5, 4, 3} { // most recent first
		want := fmt.Sprintf("event_id = %d", wantID)
		if !strings.Contains(entries[i].SQL, want) {
			t.Errorf("entry %d: sql = %q, want it to contain %q", i, entries[i].SQL, want)
		}
	}
	e := entries[0]
	if e.QueryID == "" {
		t.Error("captured entry has no query id")
	}
	if e.Route != "pool-ral" {
		t.Errorf("route = %q, want pool-ral", e.Route)
	}
	if e.Duration <= 0 {
		t.Errorf("duration = %v", e.Duration)
	}
	if e.PhaseBackend <= 0 {
		t.Errorf("backend phase = %v, want > 0", e.PhaseBackend)
	}
	if e.Explain == nil {
		t.Fatal("captured entry has no explain plan")
	}
	if got := e.Explain["route"]; got != "pool-ral" {
		t.Errorf("explain route = %v, want pool-ral", got)
	}
}

// TestSlowEntryPhasesSumToDuration: for a materialized query and for a
// drained stream alike, the captured phases account for the captured
// duration — parse, route, backend (open plus, materialized, the drain)
// and the consumer-paced stream phase leave no gap beyond bookkeeping.
func TestSlowEntryPhasesSumToDuration(t *testing.T) {
	s := New(Config{Name: "obs-phases", SlowQueryThreshold: time.Nanosecond})
	defer s.Close()
	_, ref, spec := registerSlowSource(40 * time.Millisecond)
	if err := s.AddDatabase(ref, spec, "", ""); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT a FROM slow_t"
	check := func(entry string, streamed bool) {
		t.Helper()
		e := s.SlowQueries()[0]
		sum := e.PhaseParse + e.PhaseRoute + e.PhaseBackend + e.PhaseStream
		if e.PhaseBackend < 40*time.Millisecond {
			t.Errorf("%s: backend phase = %v, want the source's 40ms in it", entry, e.PhaseBackend)
		}
		if (e.PhaseStream > 0) != streamed {
			t.Errorf("%s: stream phase = %v, want set only for streams", entry, e.PhaseStream)
		}
		if gap := e.Duration - sum; gap < 0 || gap > 5*time.Millisecond {
			t.Errorf("%s: phases sum to %v of a %v query (gap %v)", entry, sum, e.Duration, gap)
		}
	}
	if _, err := s.QueryContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	check("query", false)
	sr, err := s.QueryStreamContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, sr)
	check("stream", true)
}

// TestExplainMatchesExecutedRoute checks that the route system.explain
// predicts is the one execution takes, by reading the per-route query
// counter before and after actually running each query.
func TestExplainMatchesExecutedRoute(t *testing.T) {
	s, _ := obsTestbed(t, Config{Name: "obs-explain"}, "explain")

	classIdx := func(name string) int32 {
		for i, n := range classNames {
			if n == name {
				return int32(i)
			}
		}
		t.Fatalf("unknown route class %q", name)
		return -1
	}
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT event_id, e_tot FROM events WHERE run = 101", "pool-ral"},
		{"SELECT event_id FROM runsinfo WHERE run = 101", "unity-pushdown"},
		{"SELECT e.event_id, r.e_tot FROM events e JOIN runsinfo r ON e.run = r.run", "unity-decomposed"},
	}
	for _, tc := range cases {
		m, err := s.Explain(context.Background(), tc.sql)
		if err != nil {
			t.Fatalf("explain %q: %v", tc.sql, err)
		}
		if got := m["route"]; got != tc.want {
			t.Errorf("explain route for %q = %v, want %q", tc.sql, got, tc.want)
			continue
		}
		if cached := m["cached"]; cached != false {
			t.Errorf("cached = %v before any execution", cached)
		}
		c := classIdx(tc.want)
		before := s.obs.queries[c].Value()
		if _, err := s.QueryContext(context.Background(), tc.sql); err != nil {
			t.Fatalf("execute %q: %v", tc.sql, err)
		}
		if after := s.obs.queries[c].Value(); after != before+1 {
			t.Errorf("route counter %q moved %d -> %d after executing %q; explain disagrees with execution",
				tc.want, before, after, tc.sql)
		}
	}
}

// TestExplainRemoteRoute checks the forwarded shape: on a server hosting
// nothing, explain predicts the remote route with the peer's URL and a
// relay tier, and execution then takes it.
func TestExplainRemoteRoute(t *testing.T) {
	p := newRelayPair(t, Config{Name: "xp-host"}, Config{Name: "xp-fwd"}, "mart_xp_remote", "events", 30)
	defer p.close()

	const sql = "SELECT event_id FROM events WHERE run = 101"
	m, err := p.fwd.Explain(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["route"]; got != "remote" {
		t.Fatalf("explain route = %v, want remote (%v)", got, m)
	}
	if got, _ := m["forward_url"].(string); got != p.host.cfg.URL {
		t.Errorf("forward_url = %q, want %q", got, p.host.cfg.URL)
	}
	if tier, _ := m["relay"].(string); tier != "unnegotiated" {
		t.Errorf("relay tier before first contact = %q, want unnegotiated", tier)
	}
	before := p.fwd.obs.queries[classRemote].Value()
	if _, err := p.fwd.QueryContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	if after := p.fwd.obs.queries[classRemote].Value(); after != before+1 {
		t.Errorf("remote route counter moved %d -> %d; explain disagrees with execution", before, after)
	}
	// The forward probed the peer's capabilities, so the tier is now
	// resolved.
	m, err = p.fwd.Explain(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if tier, _ := m["relay"].(string); tier != "binary" {
		t.Errorf("relay tier after contact = %q, want binary", tier)
	}
}

// logSink is a goroutine-safe line buffer for slog JSON output.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (ls *logSink) Write(p []byte) (int, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.buf.Write(p)
}

func (ls *logSink) String() string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.buf.String()
}

// TestQueryIDPropagatesAcrossRelay runs a streamed federated query and
// checks both servers logged it under the same query id: the forwarding
// edge mints the id, the HTTP header carries it to the peer, and the
// peer's own log lines restore it.
func TestQueryIDPropagatesAcrossRelay(t *testing.T) {
	var fwdLog, hostLog logSink
	opts := &slog.HandlerOptions{Level: slog.LevelDebug}
	p := newRelayPair(t,
		Config{Name: "qid-host", Logger: slog.New(slog.NewJSONHandler(&hostLog, opts))},
		Config{Name: "qid-fwd", Logger: slog.New(slog.NewJSONHandler(&fwdLog, opts))},
		"mart_qid", "events", 500)
	defer p.close()

	sr, err := p.fwd.QueryStreamContext(context.Background(), "SELECT event_id FROM events")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := sr.ForEach(func(sqlengine.Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("streamed %d rows, want 500", n)
	}

	// The forwarding server logged the relay decision with the query id it
	// minted at its edge.
	id := ""
	for _, line := range strings.Split(fwdLog.String(), "\n") {
		if strings.Contains(line, `"msg":"route: relay"`) {
			if _, after, ok := strings.Cut(line, `"query_id":"`); ok {
				id, _, _ = strings.Cut(after, `"`)
			}
		}
	}
	if id == "" {
		t.Fatalf("forwarding server logged no relay decision with a query id:\n%s", fwdLog.String())
	}
	// The host server's log must carry the SAME id on its own routing
	// records for the relayed cursor's producing query.
	if !strings.Contains(hostLog.String(), `"query_id":"`+id+`"`) {
		t.Errorf("host server log does not carry forwarded query id %q:\n%s", id, hostLog.String())
	}
}

// TestQueryIDStableAcrossForward does the same for the materialized
// forward path (dataaccess.queryb).
func TestQueryIDStableAcrossForward(t *testing.T) {
	var fwdLog, hostLog logSink
	opts := &slog.HandlerOptions{Level: slog.LevelDebug}
	p := newRelayPair(t,
		Config{Name: "qidf-host", Logger: slog.New(slog.NewJSONHandler(&hostLog, opts))},
		Config{Name: "qidf-fwd", Logger: slog.New(slog.NewJSONHandler(&fwdLog, opts))},
		"mart_qidf", "events", 40)
	defer p.close()

	if _, err := p.fwd.QueryContext(context.Background(), "SELECT event_id FROM events WHERE run = 101"); err != nil {
		t.Fatal(err)
	}
	id := ""
	for _, line := range strings.Split(fwdLog.String(), "\n") {
		if strings.Contains(line, `"msg":"route: forward"`) {
			if _, after, ok := strings.Cut(line, `"query_id":"`); ok {
				id, _, _ = strings.Cut(after, `"`)
			}
		}
	}
	if id == "" {
		t.Fatalf("forwarding server logged no forward decision with a query id:\n%s", fwdLog.String())
	}
	if !strings.Contains(hostLog.String(), `"query_id":"`+id+`"`) {
		t.Errorf("host server log does not carry forwarded query id %q:\n%s", id, hostLog.String())
	}
}

// TestObsvRaceHammer drives queries, streams, scrapes, slow-ring reads
// and stats snapshots concurrently; run under -race it audits that every
// counter on these paths is properly synchronized.
func TestObsvRaceHammer(t *testing.T) {
	s, url := obsTestbed(t, Config{
		Name:               "obs-race",
		CacheSize:          16,
		SlowQueryThreshold: time.Nanosecond,
	}, "race")

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (w + i) % 3 {
				case 0:
					s.QueryContext(context.Background(), "SELECT event_id FROM events WHERE run = 101") //nolint:errcheck
				case 1:
					sr, err := s.QueryStreamContext(context.Background(), "SELECT event_id FROM events")
					if err == nil {
						sr.ForEach(func(sqlengine.Row) error { return nil }) //nolint:errcheck
					}
				case 2:
					s.Explain(context.Background(), "SELECT event_id FROM runsinfo") //nolint:errcheck
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(url + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				s.Metrics().Snapshot()
				s.SlowQueries()
				s.CursorStats()
				s.CacheStats()
			}
		}()
	}
	wg.Wait()
}

// TestObsvOverheadBudget holds the instrumentation's cost bar: the routed
// query path fully armed (query ids, per-route histograms, phase timings,
// a discard logger, the slow ring at a realistic threshold) costs under 5%
// more than the same path under DisableObsv. The two services take turns
// query by query, so host noise and GC cycles fall on both alike, and the
// medians are compared, so the queries they do hit are outliers on either
// side; three attempts must all miss before the budget is declared blown.
func TestObsvOverheadBudget(t *testing.T) {
	if leaktest.RaceEnabled || testing.Short() {
		t.Skip("timing comparison: meaningless under -race, slow under -short")
	}
	const q = "SELECT event_id, run FROM obs_ev WHERE run = 101 AND event_id <= 60"
	base := admService(t, "mart_obs_budget0", "obs_ev", 200, Config{DisableObsv: true})
	defer base.Close()
	armed := admService(t, "mart_obs_budget1", "obs_ev", 200, Config{
		Logger: slog.New(slog.DiscardHandler), SlowQueryThreshold: time.Millisecond,
	})
	defer armed.Close()

	const pairs = 4000
	sides := [2]*Service{base, armed}
	var lat [2][]time.Duration
	var pct float64
	for attempt := 0; attempt < 3; attempt++ {
		for i := 0; i < 2*pairs+200; i++ {
			start := time.Now()
			if _, err := sides[i%2].QueryContext(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			if i >= 200 { // the first hundred pairs warm connections and caches
				lat[i%2] = append(lat[i%2], time.Since(start))
			}
		}
		var med [2]time.Duration
		for side := range lat {
			slices.Sort(lat[side])
			med[side], lat[side] = lat[side][pairs/2], lat[side][:0]
		}
		pct = 100 * float64(med[1]-med[0]) / float64(med[0])
		t.Logf("attempt %d: median DisableObsv %v, armed %v, overhead %.2f%%", attempt+1, med[0], med[1], pct)
		if pct < 5 {
			return
		}
	}
	t.Fatalf("observability overhead %.2f%% on every attempt, budget is < 5%%", pct)
}
