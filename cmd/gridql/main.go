// Command gridql is the CLI query client: it submits SQL (written against
// logical table names) to a JClarens server over XML-RPC and prints the
// merged result table, mirroring the paper's lightweight Clarens clients.
//
// Usage:
//
//	gridql -server http://host:9410 [-user u -password p] [-timeout 30s] "SELECT ..."
//	gridql -server http://host:9410 -stream [-fetch-size 256] "SELECT ..."
//	gridql -server http://host:9410 -tables
//	gridql -server http://host:9410 -schema events
//	gridql -server http://host:9410 -cache
//	gridql -server http://host:9410 -cache-flush
//	gridql -server http://host:9410 -cursors
//	gridql -server http://host:9410 -explain "SELECT ..."
//	gridql -server http://host:9410 -slow [-n 10]
//	gridql -server http://host:9410 -metrics
//	gridql -server http://host:9410 -loadstats
//
// -explain prints the routing decision a query would take — route class,
// cache state, chosen member databases or peers, relay tier, budgets —
// without executing it (the system.explain method). -slow lists the
// server's slow-query ring (system.slowqueries): the queries over the
// server's -slow-threshold, with per-phase timings and their captured
// plans. -metrics dumps the unified metrics snapshot (system.metrics);
// the same registry is scraped as Prometheus text at the server's
// /metrics endpoint. -loadstats shows the admission-control picture
// (system.loadstats): the in-flight gate's occupancy and queue, the
// admitted/queued/shed totals, and the per-tenant breakdown — who is
// being admitted, who is being shed, and who holds open cursors and
// streamed bytes against their session quotas.
//
// -stream pages the result through a server-side cursor (the
// system.cursor.open/fetch/close methods) instead of one materialized
// response: rows print as chunks of at most -fetch-size arrive, neither
// side ever buffers more than one chunk, and interrupting the client (or
// letting the cursor idle past the server's TTL) cancels the producing
// query on the server. When the queried table lives on *another* JClarens
// server, the contacted server relays that peer's cursor page by page, so
// the -fetch-size bound holds on every hop of the federation — no server
// on the path materializes the scan. -cursors shows both sides of that
// traffic: the cursors this server serves (open/opened/fetches/rows/
// reaped) and the relays it runs onto peers (relay_opens/relay_fetches/
// relay_rows/relay_fallbacks).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/sqlengine"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:9410", "JClarens server URL")
	user := flag.String("user", "", "login user (for closed servers)")
	password := flag.String("password", "", "login password")
	tables := flag.Bool("tables", false, "list logical tables and exit")
	schema := flag.String("schema", "", "print a table's schema and exit")
	cache := flag.Bool("cache", false, "print the server's query-result cache stats and exit")
	cacheFlush := flag.Bool("cache-flush", false, "drop the server's query-result cache and exit")
	cursors := flag.Bool("cursors", false, "print the server's streaming-cursor stats and exit")
	explain := flag.Bool("explain", false, "print the query's routing decision without executing it")
	slow := flag.Bool("slow", false, "print the server's slow-query log and exit")
	slowN := flag.Int("n", 0, "with -slow, print at most this many entries (0 = all)")
	metrics := flag.Bool("metrics", false, "print the server's unified metrics snapshot and exit")
	loadstats := flag.Bool("loadstats", false, "print the server's admission-control and per-tenant load stats and exit")
	stream := flag.Bool("stream", false, "page the result through a server-side cursor instead of one materialized response")
	fetchSize := flag.Int("fetch-size", 256, "rows per cursor fetch with -stream (server clamps to its maximum)")
	timeout := flag.Duration("timeout", 0, "abandon the call after this long (0 = no deadline); the server cancels the query's backend work")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	c := clarens.NewClient(*server)
	if *user != "" {
		if err := c.LoginContext(ctx, *user, *password); err != nil {
			log.Fatalf("gridql: login: %v", err)
		}
	}

	switch {
	case *cache:
		res, err := c.CallContext(ctx, "system.cachestats")
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		m := res.(map[string]interface{})
		fmt.Printf("query-result cache enabled=%v\n", m["enabled"])
		for _, k := range []string{"entries", "bytes", "hits", "misses", "coalesced", "evictions", "expirations", "invalidations", "rejected"} {
			fmt.Printf("  %-14s %v\n", k, m[k])
		}
	case *cacheFlush:
		res, err := c.CallContext(ctx, "system.cacheflush")
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		fmt.Printf("dropped %v cached entries\n", res)
	case *cursors:
		res, err := c.CallContext(ctx, "system.cursorstats")
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		m := res.(map[string]interface{})
		fmt.Println("streaming cursors (served)")
		for _, k := range []string{"open", "opened", "fetches", "rows", "reaped"} {
			fmt.Printf("  %-15s %v\n", k, m[k])
		}
		fmt.Println("cursor relays onto peers (outbound)")
		for _, k := range []string{"relay_opens", "relay_fetches", "relay_rows", "relay_fallbacks"} {
			v, ok := m[k]
			if !ok {
				v = int64(0) // pre-relay server: counters not reported
			}
			fmt.Printf("  %-15s %v\n", k, v)
		}
	case *metrics:
		res, err := c.CallContext(ctx, "system.metrics")
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		m := res.(map[string]interface{})
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-60s %v\n", k, m[k])
		}
	case *loadstats:
		res, err := c.CallContext(ctx, "system.loadstats")
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		m := res.(map[string]interface{})
		fmt.Printf("admission control enabled=%v\n", m["enabled"])
		for _, k := range []string{"max_inflight", "queue_cap", "inflight", "queued", "admitted_immediate", "admitted_queued", "shed", "cancelled", "session_max_cursors", "session_max_bytes"} {
			fmt.Printf("  %-20s %v\n", k, m[k])
		}
		tenants, _ := m["tenants"].([]interface{})
		for _, ti := range tenants {
			t, ok := ti.(map[string]interface{})
			if !ok {
				continue
			}
			fmt.Printf("tenant %v (weight %v)\n", t["tenant"], t["weight"])
			for _, k := range []string{"admitted_immediate", "admitted_queued", "shed", "cancelled", "queued_ms", "quota_denied_cursors", "quota_denied_bytes", "sessions", "open_cursors", "streamed_bytes"} {
				fmt.Printf("  %-20s %v\n", k, t[k])
			}
		}
	case *slow:
		args := []interface{}{}
		if *slowN > 0 {
			args = append(args, int64(*slowN))
		}
		res, err := c.CallContext(ctx, "system.slowqueries", args...)
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		m := res.(map[string]interface{})
		fmt.Printf("slow-query log: threshold %vms, %v captured lifetime (ring capacity %v)\n",
			m["threshold_ms"], m["total"], m["capacity"])
		entries, _ := m["entries"].([]interface{})
		for _, ei := range entries {
			e, ok := ei.(map[string]interface{})
			if !ok {
				continue
			}
			fmt.Printf("\n[%v] %.1fms via %v  rows=%v bytes=%v\n",
				e["query_id"], e["duration_ms"], e["route"], e["rows"], e["bytes"])
			fmt.Printf("  sql: %v\n", e["sql"])
			if ph, ok := e["phases_ms"].(map[string]interface{}); ok {
				fmt.Printf("  phases: parse=%.1fms route=%.1fms backend=%.1fms stream=%.1fms\n",
					ph["parse"], ph["route"], ph["backend"], ph["stream"])
			}
			if errStr, ok := e["error"]; ok {
				fmt.Printf("  error: %v\n", errStr)
			}
			if ex, ok := e["explain"].(map[string]interface{}); ok {
				printExplain(ex, "  ")
			}
		}
	case *explain:
		query := strings.TrimSpace(strings.Join(flag.Args(), " "))
		if query == "" {
			log.Fatal("gridql: -explain needs a query")
		}
		res, err := c.CallContext(ctx, "system.explain", query)
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		m, ok := res.(map[string]interface{})
		if !ok {
			log.Fatalf("gridql: unexpected explain response %T", res)
		}
		printExplain(m, "")
	case *tables:
		res, err := c.CallContext(ctx, "dataaccess.tables")
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		for _, t := range res.([]interface{}) {
			fmt.Println(t)
		}
	case *schema != "":
		res, err := c.CallContext(ctx, "dataaccess.schema", *schema)
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		m := res.(map[string]interface{})
		fmt.Printf("table %v (replicas: %v)\n", m["table"], m["replicas"])
		cols, _ := m["columns"].([]interface{})
		for _, ci := range cols {
			col := ci.(map[string]interface{})
			fmt.Printf("  %-24v %-12v nullable=%v key=%v\n", col["name"], col["kind"], col["nullable"], col["key"])
		}
	case *stream:
		query := strings.TrimSpace(strings.Join(flag.Args(), " "))
		if query == "" {
			log.Fatal("gridql: -stream needs a query")
		}
		if err := streamQuery(ctx, c, query, *fetchSize); err != nil {
			log.Fatalf("gridql: %v", err)
		}
	default:
		query := strings.TrimSpace(strings.Join(flag.Args(), " "))
		if query == "" {
			log.Fatal("gridql: no query given (or use -tables / -schema)")
		}
		res, err := c.CallDecodeContext(ctx, "dataaccess.query", decodeQueryResult, query)
		if clarens.IsCancelled(err) {
			if *timeout > 0 {
				log.Fatalf("gridql: query abandoned after -timeout %s (the server cancels its backend work): %v", *timeout, err)
			}
			log.Fatalf("gridql: query cancelled server-side (its request deadline expired): %v", err)
		}
		if err != nil {
			log.Fatalf("gridql: %v", err)
		}
		qr, ok := res.(*dataaccess.QueryResult)
		if !ok {
			log.Fatal("gridql: empty response")
		}
		fmt.Print(sqlengine.FormatResult(qr.ResultSet))
		fmt.Printf("(%d rows via %v, %v server(s))\n", len(qr.Rows), qr.Route, qr.Servers)
	}
}

// printExplain renders a routing description: the headline route first,
// then every other key sorted, nested maps and lists indented under it.
func printExplain(m map[string]interface{}, indent string) {
	if route, ok := m["route"]; ok {
		fmt.Printf("%sroute: %v (cached=%v)\n", indent, route, m["cached"])
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		if k == "route" || k == "cached" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := m[k].(type) {
		case map[string]interface{}:
			fmt.Printf("%s%s:\n", indent, k)
			inner := make([]string, 0, len(v))
			for ik := range v {
				inner = append(inner, ik)
			}
			sort.Strings(inner)
			for _, ik := range inner {
				fmt.Printf("%s  %s: %v\n", indent, ik, v[ik])
			}
		case []interface{}:
			fmt.Printf("%s%s: %v\n", indent, k, v)
		default:
			fmt.Printf("%s%s: %v\n", indent, k, v)
		}
	}
}

// decodeQueryResult and decodeChunk read a dataaccess.query result and a
// system.cursor.fetch chunk straight off the wire into engine rows.
func decodeQueryResult(d *clarens.Decoder) (interface{}, error) {
	return dataaccess.DecodeQueryResultFrom(d)
}

func decodeChunk(d *clarens.Decoder) (interface{}, error) { return dataaccess.DecodeChunkFrom(d) }

// streamQuery pages a query through the server-side cursor protocol,
// printing rows tab-separated as each chunk arrives. The cursor is closed
// on every exit path so an aborted run does not leave the server holding
// a live backend query until its TTL.
func streamQuery(ctx context.Context, c *clarens.Client, query string, fetchSize int) error {
	res, err := c.CallContext(ctx, "system.cursor.open", query)
	if err != nil {
		return err
	}
	m, ok := res.(map[string]interface{})
	if !ok {
		return fmt.Errorf("unexpected cursor.open response %T", res)
	}
	id, _ := m["cursor"].(string)
	if id == "" {
		return fmt.Errorf("cursor.open returned no cursor id")
	}
	defer c.Call("system.cursor.close", id)

	cols, _ := m["columns"].([]interface{})
	names := make([]string, len(cols))
	for i, ci := range cols {
		names[i], _ = ci.(string)
	}
	fmt.Println(strings.Join(names, "\t"))
	total := 0
	for {
		res, err := c.CallDecodeContext(ctx, "system.cursor.fetch", decodeChunk, id, int64(fetchSize))
		if err != nil {
			return err
		}
		chunk, ok := res.(*dataaccess.Chunk)
		if !ok {
			return fmt.Errorf("empty cursor.fetch response")
		}
		for _, row := range chunk.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				if v.IsNull() {
					cells[i] = "NULL"
				} else {
					cells[i] = v.String()
				}
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		total += len(chunk.Rows)
		if chunk.Done {
			break
		}
	}
	fmt.Printf("(%d rows streamed via %v, %v server(s), fetch size %d)\n", total, m["route"], m["servers"], fetchSize)
	return nil
}
