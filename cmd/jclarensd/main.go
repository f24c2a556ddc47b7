// Command jclarensd runs one JClarens data access service instance: the
// XML-RPC web service front end (§4.5) over the routing core, publishing
// its hosted tables to the RLS and tracking backend schema changes.
//
// Usage:
//
//	jclarensd -addr :9410 [-rls http://host:9400] \
//	          -mart name=driver=url [-mart ...] \
//	          [-xspec name=/path/spec.xspec] [-open=true] [-user u:p] \
//	          [-track 30s] [-advertise http://host:9410] \
//	          [-cache 1024] [-cache-bytes 64000000] [-cache-ttl 5m] \
//	          [-cursor-ttl 2m] [-request-timeout 30s] [-no-binrows] \
//	          [-relay-fetch-size 256] [-source-budget 20s] \
//	          [-scratch-bytes 67108864] \
//	          [-max-inflight 64] [-admission-queue 128] \
//	          [-admission-timeout 5s] [-tenant-weight alice=4] \
//	          [-session-max-cursors 8] [-session-max-bytes 1000000000] \
//	          [-log-format text|json] [-log-level info] \
//	          [-slow-threshold 500ms] [-slow-log-size 64]
//
// -cache enables the query-result cache (entries); repeated federated
// queries are then served without re-executing their sub-queries, and the
// schema tracker evicts entries whose tables changed. -cache-bytes
// additionally bounds the cache by estimated resident bytes and refuses
// admission to any single result set large enough to dominate it (one
// huge scan can no longer blow the heap). Inspect it with gridql -cache
// (the system.cachestats method).
//
// -cursor-ttl bounds how long an idle server-side cursor (opened by
// streaming clients via system.cursor.open, e.g. gridql -stream) may sit
// between fetches before its producing query is cancelled and its
// resources released.
//
// -no-binrows disables the negotiated binary row framing other JClarens
// instances use for forwards to and from this server (discovered through
// system.capabilities); plain XML-RPC is always accepted regardless, so
// the flag trades only speed, never interoperability.
//
// -log-format / -log-level configure the structured query log: every
// record carries the query id assigned at this server's edge (and
// propagated across relay hops), the route decision, timings, and row
// counts. -slow-threshold enables the slow-query ring served by
// system.slowqueries (gridql -slow): queries over the threshold are
// captured with their explain plan and per-phase timings. The unified
// metrics registry is always served at /metrics (Prometheus text) and
// via system.metrics.
//
// -relay-fetch-size bounds this server's buffering per federated stream:
// when a streamed query routes to another JClarens instance, this server
// relays the peer's cursor page by page (gridql -stream then chains the
// bound all the way to the client) and each page carries at most this
// many rows. -source-budget bounds every peer operation of a federated
// query (a forward, a table-column lookup, a relay page) so one stuck
// peer fails fast instead of consuming the whole -request-timeout
// allowance.
//
// -scratch-bytes bounds each buffering streaming operator of a decomposed
// federated query: a hash-join build or external sort that outgrows the
// budget spills to disk (Grace partitioning / sorted runs) instead of
// growing the heap. Spill activity is served in the gridrdb_spill_* metric family.
//
// -max-inflight enables admission control: at most that many queries
// execute or stream concurrently, arrivals past the cap queue FIFO
// within their tenant's weight class (-tenant-weight user=N, repeatable)
// up to -admission-queue waiters, and a waiter not granted a slot within
// -admission-timeout is shed with the distinct FaultOverloaded code
// (105) so clients know to back off and retry. -session-max-cursors and
// -session-max-bytes cap each login session's concurrently open
// streaming cursors and lifetime streamed bytes. Inspect the gate with
// gridql -loadstats (system.loadstats) and the gridrdb_admission_*
// metric family.
//
// -open=false requires login: the daemon refuses to start unless at least
// one -user is given.
//
// Each -mart declares one data mart: its source name, driver
// (gridsql-oracle|mysql|mssql|sqlite) and DSN (tcp://..., local://...,
// file://...). Unless a -xspec overrides it, the lower-level XSpec is
// generated by introspecting the live database.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"gridrdb/internal/dataaccess"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/wire"
	"gridrdb/internal/xspec"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	addr := flag.String("addr", ":9410", "listen address")
	rlsURL := flag.String("rls", "", "RLS catalog URL (enables cross-server forwarding)")
	advertise := flag.String("advertise", "", "URL to publish to the RLS (default: the bound address)")
	open := flag.Bool("open", true, "serve without authentication")
	cache := flag.Int("cache", 0, "query-result cache size in entries (0 disables)")
	cacheBytes := flag.Int64("cache-bytes", 0, "query-result cache byte budget (0 = entry count only); oversized result sets are refused admission")
	cacheTTL := flag.Duration("cache-ttl", 0, "query-result cache entry TTL (0 = no expiry)")
	cursorTTL := flag.Duration("cursor-ttl", 0, "idle TTL of server-side streaming cursors (0 = default 2m, negative disables reaping)")
	noBinRows := flag.Bool("no-binrows", false, "disable the negotiated binary row framing for server-to-server transfers (plain XML-RPC is always accepted)")
	relayFetch := flag.Int("relay-fetch-size", 0, "rows per cursor-relay fetch from remote peers (0 = default 256; peers clamp to their own maximum)")
	sourceBudget := flag.Duration("source-budget", 0, "deadline for each peer operation of a federated query: forwards, table-column lookups, relay page fetches (0 = none)")
	scratchBytes := flag.Int64("scratch-bytes", 0, "byte budget of each buffering streaming operator (hash-join build, external sort) before it spills to disk (0 = default 64 MiB, negative disables spilling)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline for method calls (0 = none); queries cut off by it fail with the cancelled fault code")
	maxInflight := flag.Int("max-inflight", 0, "admission gate: maximum concurrently executing or streaming queries (0 disables admission control)")
	admissionQueue := flag.Int("admission-queue", 0, "admission gate: maximum queued waiters (0 = 2x max-inflight, negative disables queueing)")
	admissionTimeout := flag.Duration("admission-timeout", 0, "admission gate: queue deadline before a waiter is shed with the overloaded fault code (0 = default 5s, negative waits on the caller's deadline alone)")
	sessionMaxCursors := flag.Int("session-max-cursors", 0, "per-session cap on concurrently open streaming cursors (0 = unlimited)")
	sessionMaxBytes := flag.Int64("session-max-bytes", 0, "per-session lifetime cap on estimated streamed bytes (0 = unlimited)")
	logFormat := flag.String("log-format", "text", "structured query log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum query log level: debug, info, warn or error")
	slowThreshold := flag.Duration("slow-threshold", 0, "capture queries slower than this into the slow-query ring served by system.slowqueries (0 disables)")
	slowLogSize := flag.Int("slow-log-size", 0, "slow-query ring capacity (0 = default 64)")
	track := flag.Duration("track", 0, "schema-change tracking interval (0 disables)")
	renew := flag.Duration("renew", 0, "RLS registration renewal interval (0 disables; use ~TTL/3)")
	name := flag.String("name", "jclarens", "instance name")
	var marts, xspecs, users, tenantWeights repeated
	flag.Var(&marts, "mart", "data mart as name=driver=url (repeatable)")
	flag.Var(&xspecs, "xspec", "explicit lower-level XSpec as name=path (repeatable)")
	flag.Var(&users, "user", "login credentials as user:password (repeatable)")
	flag.Var(&tenantWeights, "tenant-weight", "admission weight as user=N (repeatable); unlisted users weigh 1")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		log.Fatalf("jclarensd: %v", err)
	}
	weights := map[string]int{}
	for _, tw := range tenantWeights {
		u, n, ok := strings.Cut(tw, "=")
		if !ok {
			log.Fatalf("jclarensd: -tenant-weight %q: want user=N", tw)
		}
		w, err := strconv.Atoi(n)
		if err != nil || w <= 0 {
			log.Fatalf("jclarensd: -tenant-weight %q: weight must be a positive integer", tw)
		}
		weights[u] = w
	}
	creds := map[string]string{}
	for _, cred := range users {
		u, p, ok := strings.Cut(cred, ":")
		if !ok {
			log.Fatalf("jclarensd: -user %q: want user:password", cred)
		}
		creds[u] = p
	}
	cfg := dataaccess.Config{
		Name:               *name,
		Open:               *open,
		Users:              creds,
		Addr:               *addr,
		URL:                *advertise,
		RequestTimeout:     *reqTimeout,
		CacheSize:          *cache,
		CacheMaxBytes:      *cacheBytes,
		CacheTTL:           *cacheTTL,
		CursorTTL:          *cursorTTL,
		DisableBinRows:     *noBinRows,
		RelayFetchSize:     *relayFetch,
		SourceBudget:       *sourceBudget,
		ScratchMaxBytes:    *scratchBytes,
		Logger:             logger,
		SlowQueryThreshold: *slowThreshold,
		SlowQueryLogSize:   *slowLogSize,
		MaxInFlight:        *maxInflight,
		AdmissionQueue:     *admissionQueue,
		AdmissionTimeout:   *admissionTimeout,
		TenantWeights:      weights,
		SessionMaxCursors:  *sessionMaxCursors,
		SessionMaxBytes:    *sessionMaxBytes,
	}
	if *maxInflight > 0 {
		log.Printf("jclarensd: admission control on (max %d in flight, queue %d, deadline %s)",
			*maxInflight, *admissionQueue, *admissionTimeout)
	}
	if *sessionMaxCursors > 0 || *sessionMaxBytes > 0 {
		log.Printf("jclarensd: per-session quotas on (cursors %d, bytes %d)",
			*sessionMaxCursors, *sessionMaxBytes)
	}
	if *slowThreshold > 0 {
		log.Printf("jclarensd: slow-query capture over %s", *slowThreshold)
	}
	if *sourceBudget > 0 {
		log.Printf("jclarensd: per-source budget %s", *sourceBudget)
	}
	switch {
	case *scratchBytes > 0:
		log.Printf("jclarensd: operator spill budget %d bytes", *scratchBytes)
	case *scratchBytes < 0:
		log.Print("jclarensd: operator spilling disabled (unbounded buffering)")
	}
	if *noBinRows {
		log.Print("jclarensd: binary row framing disabled (plain XML-RPC only)")
	}
	if *rlsURL != "" {
		cfg.RLS = rls.NewClient(*rlsURL)
	}
	svc, front, url, err := dataaccess.Start(cfg)
	if err != nil {
		log.Fatalf("jclarensd: %v", err)
	}
	if svc.CacheEnabled() {
		if *cacheBytes > 0 {
			log.Printf("jclarensd: query-result cache on (%d entries, %d bytes, ttl %s)", *cache, *cacheBytes, *cacheTTL)
		} else {
			log.Printf("jclarensd: query-result cache on (%d entries, ttl %s)", *cache, *cacheTTL)
		}
	}
	if *reqTimeout > 0 {
		log.Printf("jclarensd: per-request deadline %s", *reqTimeout)
	}
	if *advertise != "" {
		url = *advertise
	}
	log.Printf("jclarensd: %s serving XML-RPC at %s/RPC2", *name, url)

	overrides := map[string]string{}
	for _, spec := range xspecs {
		n, path, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("jclarensd: -xspec %q: want name=path", spec)
		}
		overrides[n] = path
	}

	for _, m := range marts {
		parts := strings.SplitN(m, "=", 3)
		if len(parts) != 3 {
			log.Fatalf("jclarensd: -mart %q: want name=driver=url", m)
		}
		ref := xspec.SourceRef{Name: parts[0], Driver: parts[1], URL: parts[2]}
		spec, err := specFor(ref, overrides[ref.Name])
		if err != nil {
			log.Fatalf("jclarensd: mart %s: %v", ref.Name, err)
		}
		if err := svc.AddDatabase(ref, spec, "", ""); err != nil {
			log.Fatalf("jclarensd: mart %s: %v", ref.Name, err)
		}
		log.Printf("jclarensd: registered mart %s (%d tables)", ref.Name, len(spec.Tables))
	}

	var tracker *dataaccess.Tracker
	if *track > 0 {
		tracker = dataaccess.NewTracker(svc, *track)
		tracker.Start()
		log.Printf("jclarensd: schema tracker running every %s", *track)
	}
	var heartbeat *dataaccess.Heartbeat
	if *renew > 0 {
		if *rlsURL == "" {
			log.Fatal("jclarensd: -renew requires -rls")
		}
		heartbeat = dataaccess.NewHeartbeat(svc, *renew)
		heartbeat.Start()
		log.Printf("jclarensd: RLS heartbeat running every %s", *renew)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("jclarensd: shutting down")
	if tracker != nil {
		tracker.Stop()
	}
	if heartbeat != nil {
		heartbeat.Stop()
	}
	front.Close()
	svc.Close()
}

// buildLogger assembles the structured query logger from the -log-format
// and -log-level flags. Records go to stderr, alongside the daemon's own
// operational log.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// specFor loads an explicit XSpec file or introspects the live database.
func specFor(ref xspec.SourceRef, override string) (*xspec.LowerSpec, error) {
	if override != "" {
		data, err := xspec.ReadFile(override)
		if err != nil {
			return nil, err
		}
		return xspec.ParseLower(data)
	}
	q, dialectName, err := introspector(ref)
	if err != nil {
		return nil, err
	}
	return xspec.Generate(ref.Name, dialectName, q)
}

// introspector opens a short-lived query surface for XSpec generation.
func introspector(ref xspec.SourceRef) (xspec.Queryer, string, error) {
	vendor := unity.VendorFromDriver(ref.Driver)
	switch {
	case strings.HasPrefix(ref.URL, "local://"):
		name := strings.TrimPrefix(ref.URL, "local://")
		e, ok := sqldriver.LookupEngine(name)
		if !ok {
			return nil, "", fmt.Errorf("no local engine %q", name)
		}
		return e, e.Dialect().Name, nil
	case strings.HasPrefix(ref.URL, "file://"):
		e, err := sqlengine.LoadFile(strings.TrimPrefix(ref.URL, "file://"))
		if err != nil {
			return nil, "", err
		}
		return e, e.Dialect().Name, nil
	case strings.HasPrefix(ref.URL, "tcp://"):
		hostPart := strings.TrimPrefix(ref.URL, "tcp://")
		hostPart = strings.SplitN(hostPart, "?", 2)[0]
		host, db, ok := strings.Cut(hostPart, "/")
		if !ok {
			return nil, "", fmt.Errorf("bad tcp DSN %q", ref.URL)
		}
		var hello wire.Hello
		hello.Database = db
		if at := strings.LastIndex(host, "@"); at >= 0 {
			cred := host[:at]
			host = host[at+1:]
			hello.User, hello.Password, _ = strings.Cut(cred, ":")
		}
		c, err := wire.Dial(host, hello, nil, nil)
		if err != nil {
			return nil, "", err
		}
		return c, vendor, nil
	}
	return nil, "", fmt.Errorf("unsupported DSN %q", ref.URL)
}
