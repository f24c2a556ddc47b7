package dataaccess

// One routing decision, one execution path (§4.5: "the data access layer
// decides which of the two modules to forward the query to by finding out
// which databases are to be queried"). resolve makes the decision and
// open executes it as a row stream: QueryStreamContext hands that stream
// to its consumer, QueryContext drains it, and Explain renders the
// decision without opening anything — so the three cannot disagree.

import (
	"context"
	"errors"
	"log/slog"

	"gridrdb/internal/qcache"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
)

// decision names how one query will be answered and carries what open
// needs to answer it.
type decision struct {
	// class is the route class: classRAL, classUnityPush or
	// classUnityDecomp for a fully local query (plan set), classRemote or
	// classMixed for one touching tables hosted elsewhere (rp set).
	class int32
	plan  *unity.Plan
	rp    *remotePlan
	// ralConn and ral are the POOL-RAL handle and call shape of a classRAL
	// query.
	ralConn string
	ral     *unity.RALParts
	// mixed is the pipelined integration plan of a classMixed query; when
	// nil the scratch engine integrates it and mixedFallback says why.
	mixed         *sqlengine.StreamPlan
	mixedFallback string
	// deps is the (source, table) set the answer reads from — its
	// cache-invalidation fingerprint.
	deps []qcache.Dep
}

// resolve routes one query without executing it: POOL-RAL for a simple
// single-source query on a supported vendor, Unity (pushdown or
// decomposed) for the other fully local ones, and for tables this
// instance does not host an RLS lookup followed by either the whole query
// going to the one server that has them all, or a per-table integration.
func (s *Service) resolve(ctx context.Context, sqlText string, params []sqlengine.Value) (*decision, error) {
	t := trackFrom(ctx)
	tp := t.now()
	plan, err := s.fed.PlanQuery(sqlText)
	t.addParse(tp)
	defer t.addRoute(t.now())
	d := &decision{}
	var unknown *unity.ErrUnknownTable
	switch {
	case err == nil:
		d.class, d.plan, d.deps = classUnityDecomp, plan, planDeps(plan)
		if plan.Pushdown {
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
		}
	case errors.As(err, &unknown):
		rp, err := s.resolveRemoteTables(ctx, sqlText)
		if err != nil {
			return nil, err
		}
		d.class, d.rp, d.deps = classMixed, rp, rp.deps
		if rp.singleURL != "" && len(params) == 0 {
			d.class = classRemote
		} else {
			d.mixed, d.mixedFallback = unity.PlanIntegrateStream(rp.sel)
		}
	default:
		return nil, err
	}
	t.noteDecision(d)
	return d, nil
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

// open executes a decision, returning the raw row stream — no cache tee,
// admission or tracking wrapped around it yet — labelled with the route
// and the number of Clarens servers behind it. The time it takes is the
// query's backend phase, and the executed operator lands on the track.
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
		return rawStream(it, RoutePOOLRAL, 1), nil

	case classRemote:
		msg := "route: relay"
		if wholeResult {
			msg = "route: forward"
		}
		s.obs.log(ctx, slog.LevelDebug, msg, slog.String("peer", d.rp.singleURL))
		it, err := s.remoteRows(ctx, d.rp.singleURL, sqlText, wholeResult)
		if err != nil {
			return nil, err
		}
		s.stats.Forwarded.Add(1)
		return rawStream(it, RouteRemote, 2), nil

	case classMixed:
		s.obs.log(ctx, slog.LevelDebug, "route: mixed",
			slog.Int("tables", len(d.rp.tables)), slog.Int("remote_tables", len(d.rp.remoteHost)))
		loads, servers, err := s.mixedLoads(ctx, d.rp)
		if err != nil {
			return nil, err
		}
		// Either integration owns the loads from here and closes them.
		var it sqlengine.RowIter
		ex := &unity.StreamExec{Operator: "scratch", Fallback: d.mixedFallback}
		if d.mixed != nil {
			ex.Operator = "pipelined mixed"
			it, ex.Stats, err = unity.IntegrateStream(ctx, d.mixed, loads, params, s.cfg.ScratchMaxBytes)
		} else {
			var rs *sqlengine.ResultSet
			if rs, err = unity.IntegrateIters(ctx, d.rp.sel, loads, params); err == nil {
				it = sqlengine.SliceIter(rs)
			}
		}
		if err != nil {
			return nil, err
		}
		s.noteOperator(ctx, ex)
		s.stats.Mixed.Add(1)
		return rawStream(it, RouteMixed, servers), nil

	default: // classUnityPush, classUnityDecomp
		s.obs.log(ctx, slog.LevelDebug, "route: unity",
			slog.Bool("pushdown", d.plan.Pushdown), slog.Int("tables", len(d.plan.Tables)))
		it, ex, err := s.fed.ExecuteStreamOp(ctx, d.plan, params...)
		if err != nil {
			return nil, err
		}
		if !d.plan.Pushdown {
			s.noteOperator(ctx, ex)
		}
		s.stats.Unity.Add(1)
		return rawStream(it, RouteUnity, 1), nil
	}
}

func rawStream(it sqlengine.RowIter, route Route, servers int) *StreamResult {
	return &StreamResult{cols: it.Columns(), Route: route, Servers: servers, iter: it}
}

// mixedLoads opens one stream per table of a mixed query — a federation
// cursor for the tables hosted here, a lazy relay for the others, so a
// peer's cursor opens only when the integration reaches its table — and
// counts the servers involved.
func (s *Service) mixedLoads(ctx context.Context, rp *remotePlan) ([]unity.StreamLoad, int, error) {
	loads := make([]unity.StreamLoad, 0, len(rp.tables))
	peers := map[string]bool{}
	for _, tbl := range rp.tables {
		fetch := unity.RemoteFetchSQL(rp.sel, tbl)
		var it sqlengine.RowIter
		if rp.local[tbl] {
			var err error
			if it, _, err = s.fed.QueryStreamContext(ctx, fetch); err != nil {
				for _, ld := range loads {
					ld.Iter.Close()
				}
				return nil, 0, err
			}
		} else {
			it = s.tableStreamFromRemote(ctx, rp.remoteHost[tbl], fetch)
			peers[rp.remoteHost[tbl]] = true
		}
		loads = append(loads, unity.StreamLoad{Logical: tbl, Iter: it})
	}
	return loads, 1 + len(peers), nil
}

// noteOperator records how a decomposed or mixed query actually ran —
// pipelined operators or the scratch engine, and why — on the counters,
// the debug log and the query's track.
func (s *Service) noteOperator(ctx context.Context, ex *unity.StreamExec) {
	if ex.Operator == "scratch" {
		s.obs.streamScratch.Inc()
	} else {
		s.obs.streamPipelined.Inc()
	}
	s.obs.log(ctx, slog.LevelDebug, "stream: operator",
		slog.String("operator", ex.Operator), slog.String("fallback", ex.Fallback))
	trackFrom(ctx).noteStreamExec(ex)
}
