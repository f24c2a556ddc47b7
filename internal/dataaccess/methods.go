package dataaccess

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/obsv"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// RegisterMethods installs the data access service's methods on a Clarens
// server, forming the web-service interface of the paper:
//
//	dataaccess.query(sql)                     -> {columns, rows}
//	dataaccess.queryb(sql)                    -> {columns, rowsb}   (binary row frame, negotiated)
//	dataaccess.tables()                       -> [logical names]
//	dataaccess.schema(table)                  -> {columns: [{name,kind,...}]}
//	dataaccess.addDatabase(xspecURL, driver, url [, user, password])
//	dataaccess.removeDatabase(name)
//	dataaccess.sources()                      -> [source names]
//	system.capabilities()                     -> {rowcodec, name}
//	system.cachestats()                       -> {enabled, hits, misses, ...}
//	system.cacheflush()                       -> entries dropped
//	system.cursorstats()                      -> {open, opened, fetches, rows, reaped}
//	system.cursor.open(sql [, params...])     -> {cursor, columns, route, servers, ttl_ms}
//	system.cursor.fetch(cursor [, n])         -> {rows, done}
//	system.cursor.fetchb(cursor [, n])        -> {rowsb, done}      (binary row frame, negotiated)
//	system.cursor.close(cursor)               -> existed
//	system.metrics()                          -> {name{labels}: value, ...} (unified snapshot)
//	system.explain(sql [, params...])         -> {route, cached, deps, ...} (no execution)
//	system.slowqueries([n])                   -> {threshold_ms, total, entries}
//	system.loadstats()                        -> {enabled, inflight, queued, tenants, ...}
//
// Result payloads are rendered by the zero-boxing wire codec: rows encode
// cell-direct into the response stream (wirecodec.go). queryb / fetchb are
// the server↔server fast path carrying rows as one binary base64 frame;
// they are only registered when the row codec is enabled, and peers
// discover them through system.capabilities — plain XML-RPC clients are
// unaffected.
func (s *Service) RegisterMethods(srv *clarens.Server) {
	queryArgs := func(method string, args []interface{}) (string, []sqlengine.Value, error) {
		if len(args) < 1 {
			return "", nil, fmt.Errorf("%s requires (sql [, params...])", method)
		}
		sqlText, ok := args[0].(string)
		if !ok {
			return "", nil, fmt.Errorf("%s: sql must be a string", method)
		}
		params, err := xmlrpcParams(args[1:])
		return sqlText, params, err
	}

	srv.Register("dataaccess.query", func(ctx context.Context, call *clarens.CallContext, args []interface{}) (interface{}, error) {
		sqlText, params, err := queryArgs("dataaccess.query", args)
		if err != nil {
			return nil, err
		}
		qr, err := s.QueryContext(WithCaller(ctx, call.User, call.Session), sqlText, params...)
		if err != nil {
			return nil, err
		}
		res := WireResult(qr.ResultSet)
		res["route"] = string(qr.Route)
		res["servers"] = int64(qr.Servers)
		return res, nil
	})

	rowCodec := RowCodecVersion
	if s.cfg.DisableBinRows {
		rowCodec = 0
	}
	srv.Register("system.capabilities", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		return map[string]interface{}{
			"rowcodec": int64(rowCodec),
			"name":     s.cfg.Name,
		}, nil
	})

	if !s.cfg.DisableBinRows {
		srv.Register("dataaccess.queryb", func(ctx context.Context, call *clarens.CallContext, args []interface{}) (interface{}, error) {
			sqlText, params, err := queryArgs("dataaccess.queryb", args)
			if err != nil {
				return nil, err
			}
			qr, err := s.QueryContext(WithCaller(ctx, call.User, call.Session), sqlText, params...)
			if err != nil {
				return nil, err
			}
			res := wireResultBinary(qr.ResultSet)
			res["route"] = string(qr.Route)
			res["servers"] = int64(qr.Servers)
			return res, nil
		})
	}

	srv.Register("dataaccess.tables", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		return s.fed.Dictionary().LogicalTables(), nil
	})

	srv.Register("dataaccess.schema", func(_ context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("dataaccess.schema requires (table)")
		}
		table, _ := args[0].(string)
		locs := s.fed.Dictionary().Lookup(table)
		if len(locs) == 0 {
			return nil, fmt.Errorf("dataaccess: unknown table %q", table)
		}
		spec := locs[0].Spec
		cols := make([]interface{}, len(spec.Columns))
		for i, c := range spec.Columns {
			cols[i] = map[string]interface{}{
				"name":     c.Logical,
				"physical": c.Name,
				"kind":     c.Kind,
				"nullable": c.Nullable,
				"key":      c.Key,
			}
		}
		return map[string]interface{}{
			"table":    table,
			"replicas": int64(len(locs)),
			"columns":  cols,
		}, nil
	})

	srv.Register("dataaccess.addDatabase", func(_ context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		if len(args) < 3 {
			return nil, fmt.Errorf("dataaccess.addDatabase requires (xspecURL, driver, url [, user, password])")
		}
		xspecURL, _ := args[0].(string)
		driver, _ := args[1].(string)
		url, _ := args[2].(string)
		user, password := "", ""
		if len(args) >= 5 {
			user, _ = args[3].(string)
			password, _ = args[4].(string)
		}
		name, err := s.PlugIn(xspecURL, driver, url, user, password)
		if err != nil {
			return nil, err
		}
		return name, nil
	})

	srv.Register("dataaccess.removeDatabase", func(_ context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("dataaccess.removeDatabase requires (name)")
		}
		name, _ := args[0].(string)
		if err := s.RemoveDatabase(name); err != nil {
			return nil, err
		}
		return true, nil
	})

	srv.Register("dataaccess.sources", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		return s.fed.Sources(), nil
	})

	srv.Register("system.cachestats", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		st := s.CacheStats()
		return map[string]interface{}{
			"enabled":       s.CacheEnabled(),
			"hits":          st.Hits,
			"misses":        st.Misses,
			"evictions":     st.Evictions,
			"expirations":   st.Expirations,
			"invalidations": st.Invalidations,
			"coalesced":     st.Coalesced,
			"rejected":      st.Rejected,
			"entries":       int64(st.Entries),
			"bytes":         st.Bytes,
		}, nil
	})

	srv.Register("system.cacheflush", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		return int64(s.CacheFlush()), nil
	})

	srv.Register("system.cursorstats", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		st := s.CursorStats()
		return map[string]interface{}{
			"open":            int64(st.Open),
			"opened":          st.Opened,
			"fetches":         st.Fetches,
			"rows":            st.RowsFetched,
			"reaped":          st.Reaped,
			"relay_opens":     st.RelayOpens,
			"relay_fetches":   st.RelayFetches,
			"relay_rows":      st.RelayRows,
			"relay_fallbacks": st.RelayFallbacks,
		}, nil
	})

	// The cursor protocol pages a large scan across multiple calls with
	// bounded server memory: open starts the streaming query and returns a
	// cursor id, fetch returns chunks of at most fetchSize rows, close (or
	// the idle-TTL reaper) cancels the producing query. The producing
	// query's context is the cursor's own, not any one request's, so it
	// survives between fetches and dies with the cursor.
	srv.Register("system.cursor.open", func(ctx context.Context, call *clarens.CallContext, args []interface{}) (interface{}, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("system.cursor.open requires (sql [, params...])")
		}
		sqlText, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("system.cursor.open: sql must be a string")
		}
		params, err := xmlrpcParams(args[1:])
		if err != nil {
			return nil, err
		}
		info, err := s.OpenCursor(WithCaller(ctx, call.User, call.Session), sqlText, params...)
		if err != nil {
			return nil, err
		}
		return map[string]interface{}{
			"cursor":  info.ID,
			"columns": info.Columns,
			"route":   string(info.Route),
			"servers": int64(info.Servers),
			"ttl_ms":  info.TTL.Milliseconds(),
		}, nil
	})

	fetchArgs := func(method string, args []interface{}) (string, int, error) {
		if len(args) < 1 || len(args) > 2 {
			return "", 0, fmt.Errorf("%s requires (cursor [, n])", method)
		}
		id, ok := args[0].(string)
		if !ok {
			return "", 0, fmt.Errorf("%s: cursor must be a string", method)
		}
		n := 0
		if len(args) == 2 {
			nn, ok := args[1].(int64)
			if !ok {
				return "", 0, fmt.Errorf("%s: n must be an int, got %T", method, args[1])
			}
			n = int(nn)
		}
		return id, n, nil
	}

	srv.Register("system.cursor.fetch", func(_ context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		id, n, err := fetchArgs("system.cursor.fetch", args)
		if err != nil {
			return nil, err
		}
		rows, done, err := s.FetchCursor(id, n)
		if err != nil {
			return nil, err
		}
		return WireChunk(rows, done), nil
	})

	if !s.cfg.DisableBinRows {
		srv.Register("system.cursor.fetchb", func(_ context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
			id, n, err := fetchArgs("system.cursor.fetchb", args)
			if err != nil {
				return nil, err
			}
			rows, done, err := s.FetchCursor(id, n)
			if err != nil {
				return nil, err
			}
			return wireChunkBinary(rows, done), nil
		})
	}

	srv.Register("system.cursor.close", func(_ context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("system.cursor.close requires (cursor)")
		}
		id, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("system.cursor.close: cursor must be a string")
		}
		return s.CloseCursor(id), nil
	})

	// system.metrics is the unified counter/gauge/histogram snapshot — the
	// same registry the Prometheus /metrics endpoint renders, flattened to
	// {name{labels}: value}. Histograms contribute their _count and _sum.
	srv.Register("system.metrics", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		snap := s.Metrics().Snapshot()
		out := make(map[string]interface{}, len(snap))
		for k, v := range snap {
			out[k] = v
		}
		return out, nil
	})

	// system.explain describes the routing decision without executing.
	srv.Register("system.explain", func(ctx context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		sqlText, params, err := queryArgs("system.explain", args)
		if err != nil {
			return nil, err
		}
		return s.Explain(ctx, sqlText, params...)
	})

	// system.loadstats is the admission-control counterpart of
	// system.cachestats: the gate's live state and per-tenant admission,
	// shed and quota history.
	srv.Register("system.loadstats", func(_ context.Context, _ *clarens.CallContext, _ []interface{}) (interface{}, error) {
		ls := s.LoadStats()
		tenants := make([]interface{}, len(ls.Tenants))
		for i, tl := range ls.Tenants {
			tenants[i] = map[string]interface{}{
				"tenant":               tl.Tenant,
				"weight":               int64(tl.Weight),
				"admitted_immediate":   tl.AdmittedImmediate,
				"admitted_queued":      tl.AdmittedQueued,
				"shed":                 tl.Shed,
				"cancelled":            tl.Cancelled,
				"queued_ms":            tl.QueuedMs,
				"quota_denied_cursors": tl.QuotaDeniedCursors,
				"quota_denied_bytes":   tl.QuotaDeniedBytes,
				"sessions":             int64(tl.Sessions),
				"open_cursors":         int64(tl.OpenCursors),
				"streamed_bytes":       tl.StreamedBytes,
			}
		}
		return map[string]interface{}{
			"enabled":             ls.Enabled,
			"max_inflight":        int64(ls.MaxInFlight),
			"queue_cap":           int64(ls.QueueCap),
			"inflight":            int64(ls.InFlight),
			"queued":              int64(ls.Queued),
			"admitted_immediate":  ls.AdmittedImmediate,
			"admitted_queued":     ls.AdmittedQueued,
			"shed":                ls.Shed,
			"cancelled":           ls.Cancelled,
			"session_max_cursors": int64(ls.SessionMaxCursors),
			"session_max_bytes":   ls.SessionMaxBytes,
			"tenants":             tenants,
		}, nil
	})

	// system.slowqueries returns the slow-query ring, most recent first;
	// an optional n caps how many entries come back.
	srv.Register("system.slowqueries", func(_ context.Context, _ *clarens.CallContext, args []interface{}) (interface{}, error) {
		limit := -1
		if len(args) >= 1 {
			nn, ok := args[0].(int64)
			if !ok {
				return nil, fmt.Errorf("system.slowqueries: n must be an int, got %T", args[0])
			}
			limit = int(nn)
		}
		entries := s.SlowQueries()
		if limit >= 0 && limit < len(entries) {
			entries = entries[:limit]
		}
		list := make([]interface{}, len(entries))
		for i, e := range entries {
			list[i] = wireSlowEntry(e)
		}
		return map[string]interface{}{
			"threshold_ms": float64(s.cfg.SlowQueryThreshold) / float64(time.Millisecond),
			"capacity":     int64(s.SlowQueryCap()),
			"total":        s.SlowQueryTotal(),
			"entries":      list,
		}, nil
	})
}

// wireSlowEntry renders one slow-query capture for the wire.
func wireSlowEntry(e obsv.SlowEntry) map[string]interface{} {
	m := map[string]interface{}{
		"query_id":    e.QueryID,
		"sql":         e.SQL,
		"route":       e.Route,
		"start":       e.Start,
		"duration_ms": float64(e.Duration) / float64(time.Millisecond),
		"phases_ms": map[string]interface{}{
			"parse":   float64(e.PhaseParse) / float64(time.Millisecond),
			"route":   float64(e.PhaseRoute) / float64(time.Millisecond),
			"backend": float64(e.PhaseBackend) / float64(time.Millisecond),
			"stream":  float64(e.PhaseStream) / float64(time.Millisecond),
		},
		"rows":  e.Rows,
		"bytes": e.Bytes,
	}
	if e.Err != "" {
		m["error"] = e.Err
	}
	if e.Explain != nil {
		m["explain"] = e.Explain
	}
	return m
}

// xmlrpcParams converts a call's bound parameters, decoded into the
// generic value family, to engine values.
func xmlrpcParams(args []interface{}) ([]sqlengine.Value, error) {
	out := make([]sqlengine.Value, len(args))
	for i, a := range args {
		v, err := sqlengine.ValueOf(a)
		if err != nil {
			return nil, fmt.Errorf("dataaccess: parameter %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// PlugIn implements §4.10: given the URL of a database's XSpec file, the
// driver name and the database location, download and parse the spec,
// connect with the right driver, and register the database's tables.
// XSpec URLs may be http(s):// or file:// (or bare paths).
func (s *Service) PlugIn(xspecURL, driver, dbURL, user, password string) (string, error) {
	data, err := fetchSpec(xspecURL)
	if err != nil {
		return "", fmt.Errorf("dataaccess: fetch xspec: %w", err)
	}
	spec, err := xspec.ParseLower(data)
	if err != nil {
		return "", err
	}
	if spec.Name == "" {
		return "", fmt.Errorf("dataaccess: xspec at %s has no database name", xspecURL)
	}
	ref := xspec.SourceRef{Name: spec.Name, URL: dbURL, Driver: driver, XSpec: xspecURL}
	if err := s.AddDatabase(ref, spec, user, password); err != nil {
		return "", err
	}
	return spec.Name, nil
}

func fetchSpec(url string) ([]byte, error) {
	switch {
	case strings.HasPrefix(url, "http://") || strings.HasPrefix(url, "https://"):
		client := &http.Client{Timeout: 30 * time.Second}
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	case strings.HasPrefix(url, "file://"):
		return os.ReadFile(strings.TrimPrefix(url, "file://"))
	default:
		return os.ReadFile(url)
	}
}
