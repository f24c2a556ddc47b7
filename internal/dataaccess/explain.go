package dataaccess

// system.explain: describe the routing decision for a query without
// executing it. Explain calls the resolver the query path calls (route.go)
// and renders the value it returns, so the description is the decision
// the next execution will take (modulo replica selection, which is
// load-dependent by design).

import (
	"context"
	"strings"

	"gridrdb/internal/sqlengine"
)

// Explain resolves sqlText's routing without executing it, returning the
// wire-ready description served by system.explain: the route class, the
// cache state and dependency fingerprint, the plan shape with its chosen
// member databases or peers, the relay tier that would apply, and the
// budgets in force.
func (s *Service) Explain(ctx context.Context, sqlText string, params ...sqlengine.Value) (map[string]interface{}, error) {
	cached := s.cache != nil && s.cache.Peek(cacheKey(sqlText, params))
	d, err := s.resolve(ctx, sqlText, params)
	if err != nil {
		return nil, err
	}
	m := s.explainMap(classNames[d.class], d, cached)
	if s.admit != nil {
		// The gate's answer for a query arriving right now: "admit",
		// "queue", or "would-shed". Explain itself is never gated, so a
		// saturated server still explains why it is shedding.
		m["admission"] = s.admit.probe()
	}
	return m, nil
}

// explainMap renders a routing decision (nil for an answer served from
// the cache, which made none). It is shared by Explain and the slow-query
// capture, which keeps the decision at routing time and describes it only
// if the query turns out slow.
func (s *Service) explainMap(class string, d *decision, cached bool) map[string]interface{} {
	m := map[string]interface{}{
		"route":         class,
		"cached":        cached,
		"cache_enabled": s.cache != nil,
		"budgets":       s.budgetMap(),
	}
	if d == nil {
		m["deps"] = []interface{}{}
		return m
	}
	pe := d.plan.Explain()
	m["tables"] = strList(pe.Tables)
	if d.class == classRemote {
		// The peer gets the query text whole: it plans it, not this server.
		m["forward_url"] = d.peers[0]
		m["relay"] = s.relayTier(d.peers[0])
	} else {
		m["pushdown"] = pe.Pushdown
		if pe.Pushdown {
			m["source"] = pe.Source
		}
		if d.ral != nil {
			m["ral_source"] = d.ral.Source
		}
		// The streaming-operator decision: "pushdown" or a pipelined
		// operator label.
		m["operator"] = pe.Operator
		subs := make([]interface{}, len(pe.Subs))
		for i, sub := range pe.Subs {
			subs[i] = map[string]interface{}{
				"source": sub.Source,
				"table":  sub.Table,
				"sql":    sub.SQL,
			}
		}
		m["subqueries"] = subs
		if d.class == classMixed {
			// Which of those loads cross to another server, and how each
			// peer's pages would be framed.
			remote, local := map[string]interface{}{}, []interface{}{}
			for _, sub := range pe.Subs {
				if url, atPeer := strings.CutPrefix(sub.Source, remoteDepPrefix); atPeer {
					remote[sub.Table] = url
				} else {
					local = append(local, sub.Table)
				}
			}
			relay := make(map[string]interface{}, len(d.peers))
			for _, url := range d.peers {
				relay[url] = s.relayTier(url)
			}
			m["remote_tables"], m["local_tables"], m["relay"] = remote, local, relay
		}
	}
	deps := make([]interface{}, len(d.deps))
	for i, dep := range d.deps {
		deps[i] = []interface{}{dep.Source, dep.Table}
	}
	m["deps"] = deps
	return m
}

// budgetMap reports the timeouts and sizes that would govern execution.
func (s *Service) budgetMap() map[string]interface{} {
	fetchN := s.cfg.RelayFetchSize
	if fetchN <= 0 {
		fetchN = DefaultFetchSize
	}
	cursorTTL := s.cfg.CursorTTL
	if cursorTTL == 0 {
		cursorTTL = defaultCursorTTL
	}
	if cursorTTL < 0 {
		cursorTTL = 0
	}
	return map[string]interface{}{
		"source_budget_ms":  s.cfg.SourceBudget.Milliseconds(),
		"relay_fetch_size":  int64(fetchN),
		"cursor_ttl_ms":     cursorTTL.Milliseconds(),
		"cache_ttl_ms":      s.cfg.CacheTTL.Milliseconds(),
		"scratch_max_bytes": s.cfg.ScratchMaxBytes,
	}
}

// relayTier reports how a streamed transfer from the given peer would be
// framed, from the cached capability handshake: "binary" (fetchb),
// "plain" (XML fetch), or "unnegotiated" when no probe has resolved yet
// (execution would probe, then relay or fall back to a materialized
// forward on peers without cursors).
func (s *Service) relayTier(serverURL string) string {
	if s.cfg.DisableBinRows {
		return "plain"
	}
	s.mu.Lock()
	p, ok := s.remotes[serverURL]
	s.mu.Unlock()
	if !ok {
		return "unnegotiated"
	}
	p.mu.Lock()
	codec := p.codec
	p.mu.Unlock()
	switch codec {
	case 1:
		return "binary"
	case -1:
		return "plain"
	default:
		return "unnegotiated"
	}
}

func strList(ss []string) []interface{} {
	out := make([]interface{}, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
