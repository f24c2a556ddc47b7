package dataaccess

// One routing decision, one execution path (§4.5: "the data access layer
// decides which of the two modules to forward the query to by finding out
// which databases are to be queried"). resolve makes the decision and
// open executes it as a row stream: QueryStreamContext hands that stream
// to its consumer, QueryContext drains it, and Explain renders the
// decision without opening anything — so the three cannot disagree.
// Where a table lives does not change the path: a table on another server
// is a peer location of the federation's one plan (unity.PlanQueryAt),
// its rows arrive through the federation's peer opener, and "mixed" is
// only the label a plan with such loads carries to the client.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"

	"gridrdb/internal/qcache"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
)

// decision names how one query will be answered and carries what open
// needs to answer it; everything in it is read off the plan.
type decision struct {
	// class is the route class: classRAL, classUnityPush or
	// classUnityDecomp for a plan over member databases only, classMixed
	// for one with loads at peers, and classRemote for one whose every
	// load sits at the same peer and that takes no parameters — open
	// sends that peer the query text whole.
	class int32
	plan  *unity.Plan
	// peers lists the distinct peer servers behind the plan's loads.
	peers []string
	// ralConn and ral are the POOL-RAL handle and call shape of a classRAL
	// query.
	ralConn string
	ral     *unity.RALParts
	// deps is the (source, table) set the answer reads from — its
	// cache-invalidation fingerprint.
	deps []qcache.Dep
}

// resolve routes one query without executing it. The federation plans it;
// tables no member database hosts are looked up in the RLS (§4.8) and the
// query is planned again with the servers that host them as locations.
// The plan then decides: POOL-RAL for a simple single-source query on a
// supported vendor, Unity (pushdown or decomposed, peers included) for
// the rest, and the whole query text to the peer when every table lives
// on that one server.
func (s *Service) resolve(ctx context.Context, sqlText string, params []sqlengine.Value) (*decision, error) {
	t := trackFrom(ctx)
	tp := t.now()
	plan, err := s.fed.PlanQuery(sqlText)
	t.addParse(tp)
	defer t.addRoute(t.now())
	var unknown *unity.ErrUnknownTable
	if errors.As(err, &unknown) {
		plan, err = s.planAtPeers(ctx, sqlText, unknown.Tables, params)
	}
	if err != nil {
		return nil, err
	}
	d := s.decide(plan, params)
	t.noteDecision(d)
	return d, nil
}

// planAtPeers plans a query at the peers the RLS names for the tables no
// member database hosts. The peer is asked for a table's columns
// (dataaccess.schema) only when the plan is a mixed one whose operators
// need them — a star, or a join key only the columns attribute — and the
// query is planned once more with them: the relay stays lazy, and a query
// forwarded whole never asks.
func (s *Service) planAtPeers(ctx context.Context, sqlText string, tables []string, params []sqlengine.Value) (*unity.Plan, error) {
	peers, err := s.peerLocations(ctx, tables)
	if err != nil {
		return nil, err
	}
	plan, err := s.fed.PlanQueryAt(sqlText, peers)
	if err != nil || len(plan.NeedColumns) == 0 || s.decide(plan, params).class != classMixed {
		return plan, err
	}
	for _, table := range plan.NeedColumns {
		p := peers[table]
		if p.Columns, err = s.peerColumns(ctx, strings.TrimPrefix(p.Location, remoteDepPrefix), table); err != nil {
			return nil, err
		}
		peers[table] = p
	}
	return s.fed.PlanQueryAt(sqlText, peers)
}

// decide reads the routing decision off a plan.
func (s *Service) decide(plan *unity.Plan, params []sqlengine.Value) *decision {
	d := &decision{class: classUnityDecomp, plan: plan, deps: planDeps(plan)}
	hosted := 0 // sub-queries on this server's member databases
	for _, sub := range plan.Subs {
		url, atPeer := strings.CutPrefix(sub.Source, remoteDepPrefix)
		if !atPeer {
			hosted++
		} else if !slices.Contains(d.peers, url) {
			d.peers = append(d.peers, url)
		}
	}
	switch {
	case plan.Pushdown:
		d.class = classUnityPush
		// Only POOL-supported sources have a handle, and the RAL call
		// shape has no parameters.
		s.mu.Lock()
		conn, supported := s.ralConns[plan.Subs[0].Source]
		s.mu.Unlock()
		if supported && len(params) == 0 {
			if parts, ok := s.fed.RALPartsFor(plan); ok {
				d.class, d.ralConn, d.ral = classRAL, conn, parts
			}
		}
	case hosted == 0 && len(d.peers) == 1 && len(params) == 0:
		d.class = classRemote
	case len(d.peers) > 0:
		d.class = classMixed
	}
	return d
}

// peerLocations asks the RLS which server hosts each table this instance
// does not, and returns the location to plan each at: remoteDepPrefix plus
// the chosen server's URL — the source name its sub-query, its cache
// dependency and the federation's peer opener all see.
func (s *Service) peerLocations(ctx context.Context, tables []string) (map[string]unity.PeerTable, error) {
	if s.cfg.RLS == nil {
		return nil, fmt.Errorf("dataaccess: query references unregistered tables and no RLS is configured")
	}
	locs := make(map[string]unity.PeerTable, len(tables))
	for _, t := range tables {
		s.stats.RLSLookups.Add(1)
		servers, err := s.cfg.RLS.LookupContext(ctx, t)
		if err != nil {
			return nil, err
		}
		// Never forward to ourselves (stale RLS entries).
		servers = slices.DeleteFunc(servers, func(u string) bool { return u == s.cfg.URL })
		if len(servers) == 0 {
			return nil, fmt.Errorf("dataaccess: table %q is not registered locally and the RLS knows no server for it", t)
		}
		locs[t] = unity.PeerTable{Location: remoteDepPrefix + servers[0]}
	}
	return locs, nil
}

// peerColumns asks a peer for the logical column names of a table it
// hosts (a column without a logical name goes by its physical one). A
// peer that cannot describe the table fails the query.
func (s *Service) peerColumns(ctx context.Context, serverURL, table string) ([]string, error) {
	s.stats.SchemaLookups.Add(1)
	ctx, cancel := s.sourceCall(ctx)
	defer cancel()
	res, err := s.remotePeer(serverURL).c.CallContext(ctx, "dataaccess.schema", table)
	if err != nil {
		return nil, fmt.Errorf("dataaccess: columns of table %q at %s: %w", table, serverURL, err)
	}
	m, _ := res.(map[string]interface{})
	raw, _ := m["columns"].([]interface{})
	var cols []string
	for _, c := range raw {
		col, _ := c.(map[string]interface{})
		name, _ := col["name"].(string)
		if name == "" {
			name, _ = col["physical"].(string)
		}
		cols = append(cols, strings.ToLower(name))
	}
	if len(cols) == 0 || slices.Contains(cols, "") {
		return nil, fmt.Errorf("dataaccess: columns of table %q at %s: the peer describes no named columns", table, serverURL)
	}
	return cols, nil
}

// planDeps converts a unity plan's dependency list to cache deps.
func planDeps(plan *unity.Plan) []qcache.Dep {
	pairs := plan.Dependencies()
	deps := make([]qcache.Dep, len(pairs))
	for i, p := range pairs {
		deps[i] = qcache.Dep{Source: p[0], Table: p[1]}
	}
	return deps
}

// open executes a decision, returning the raw row stream — without the
// query edge QueryStreamContext gives it (see StreamResult) — labelled
// with the route and the number of Clarens servers behind it. The time it
// takes is the query's backend phase, and the executed operator lands on
// the track.
//
// wholeResult is the one thing an entry point still selects, for a query
// whose tables all live on one remote server: a caller that wants the
// whole answer gets it in a single forward (one RPC), a streaming caller
// gets the cursor relay (bounded memory on every hop, at one RPC per
// page). The forward is also the relay's downgrade for peers that predate
// the cursor protocol.
func (s *Service) open(ctx context.Context, d *decision, sqlText string, params []sqlengine.Value, wholeResult bool) (*StreamResult, error) {
	t := trackFrom(ctx)
	defer t.addBackend(t.now())
	switch d.class {
	case classRAL:
		s.obs.log(ctx, slog.LevelDebug, "route: pool-ral", slog.String("source", d.ral.Source))
		it, err := s.ral.QueryStreamContext(ctx, d.ralConn, d.ral.Fields, d.ral.Tables, d.ral.Where)
		if err != nil {
			return nil, err
		}
		s.stats.RAL.Add(1)
		sr := rawStream(it, RoutePOOLRAL, 1)
		if d.ral.Labels != nil {
			sr.cols = d.ral.Labels
		}
		return sr, nil

	case classRemote:
		msg := "route: relay"
		if wholeResult {
			msg = "route: forward"
		}
		s.obs.log(ctx, slog.LevelDebug, msg, slog.String("peer", d.peers[0]))
		it, err := s.remoteRows(ctx, d.peers[0], sqlText, wholeResult)
		if err != nil {
			return nil, err
		}
		s.stats.Forwarded.Add(1)
		return rawStream(it, RouteRemote, 2), nil

	default: // classUnityPush, classUnityDecomp, classMixed
		// A peer is one more location of the one plan: "mixed" is what a
		// plan with peer loads is called to the client, not another path.
		route, routed, msg := RouteUnity, &s.stats.Unity, "route: unity"
		if d.class == classMixed {
			route, routed, msg = RouteMixed, &s.stats.Mixed, "route: mixed"
		}
		s.obs.log(ctx, slog.LevelDebug, msg, slog.Bool("pushdown", d.plan.Pushdown),
			slog.Int("tables", len(d.plan.Tables)), slog.Int("peers", len(d.peers)))
		it, ex, err := s.fed.ExecuteStreamOp(ctx, d.plan, params...)
		if err != nil {
			return nil, err
		}
		if !d.plan.Pushdown {
			s.noteOperator(ctx, ex)
		}
		routed.Add(1)
		return rawStream(it, route, 1+len(d.peers)), nil
	}
}

func rawStream(it sqlengine.RowIter, route Route, servers int) *StreamResult {
	return &StreamResult{cols: it.Columns(), Route: route, Servers: servers, iter: it}
}

// noteOperator records which pipelined operator a decomposed or mixed
// query ran on the counter, the debug log and the query's track.
func (s *Service) noteOperator(ctx context.Context, ex *unity.StreamExec) {
	s.obs.streamPipelined.Inc()
	s.obs.log(ctx, slog.LevelDebug, "stream: operator", slog.String("operator", ex.Operator))
	trackFrom(ctx).noteStreamExec(ex)
}
