package main

// The four workloads. Each has one query shape, so its latencies are
// unimodal, and stresses different layers of the grid; the per-workload
// "why" is printed with the results and listed in BENCHMARK.json.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"gridrdb/internal/ntuple"
)

type opKind uint8

const (
	opQuery   opKind = iota // dataaccess.query, materialized to the client
	opScan                  // system.cursor.open / fetch... / close
	opRefresh               // re-materialize the hot mart table (barrier op)
)

// op is one step of a workload's sequence; query indexes the plan's
// distinct queries (unused for opRefresh).
type op struct {
	kind  opKind
	query int
}

// plan is a workload's generated input: the distinct query texts, the
// oracle's answer to each, and the cyclic op sequence over them.
type plan struct {
	queries []string
	answers []answer
	seq     []op
}

// workload describes one benchmark workload.
type workload struct {
	name string
	why  string
	// warmup is the fixed number of ops run (and fully checked) before the
	// measured window opens.
	warmup int
	// gen builds the plan from the seeded rng and the oracle.
	gen func(rng *rand.Rand, ref *reference) (*plan, error)
	// guard checks, from the counter deltas over the warm-up, that the
	// workload ran on its intended path.
	guard func(ctx context.Context, b *bench, delta counters) error
}

// Workload dimensions. Every distinct-query count is several times what
// front's cache can hold of that result size, and the sequences are
// cyclic, so the LRU never has a repeat resident: the first three
// workloads miss on ~every op. cached_refresh is the opposite: its 64
// queries fit, and only refreshes evict.
const (
	pointKeys = 1024 // 4x the 256-entry cache

	joinRows    = 1500
	joinQueries = 256 // ~0.8 MiB results, 8 MiB per cache shard

	scanRows    = 2000
	scanPage    = 500
	scanQueries = 128 // ~1.5 MiB results, 8 MiB per cache shard

	cachedQueries = 64  // half on the hot table, half on ev_run101
	refreshEvery  = 200 // every 200th op of the sequence is a refresh
	cachedCycles  = 8   // refresh cycles per pass over the sequence
)

func starColumns() []string {
	return ntuple.StarColumns(ntuple.Config{NVar: benchNVar})
}

var workloads = []workload{
	{
		name:   "point_lookup",
		why:    "one-row primary-key lookups over 4x the cache: parse, route, admission, cache miss, RAL backend and HTTP/XML framing are all there is (Table 1: 1 server, 1 table)",
		warmup: 256,
		gen: func(rng *rand.Rand, ref *reference) (*plan, error) {
			cols := strings.Join(starColumns(), ", ")
			rg, err := ref.ranged(fmt.Sprintf("SELECT %s FROM %s ORDER BY event_id", cols, tblRun100))
			if err != nil {
				return nil, err
			}
			p := &plan{}
			for i, at := range rng.Perm(len(rg.ids))[:min(pointKeys, len(rg.ids))] {
				p.queries = append(p.queries, fmt.Sprintf("SELECT %s FROM %s WHERE event_id = %d", cols, tblRun100, rg.ids[at]))
				p.answers = append(p.answers, rg.answer(at, 1))
				p.seq = append(p.seq, op{kind: opQuery, query: i})
			}
			return p, nil
		},
		guard: func(ctx context.Context, b *bench, delta counters) error {
			if err := b.explainIs(ctx, "route", "pool-ral"); err != nil {
				return err
			}
			if delta[cRAL] == 0 {
				return fmt.Errorf("no query took the POOL-RAL route during warm-up")
			}
			return delta.wantMisses()
		},
	},
	{
		name:   "decomposed_join",
		why:    "join of a mart table with its replica on another mart over a 1500-id range: unity planning and rendering, two member sub-queries, integration and a mid-size XML result (Table 1: distributed, 2 tables)",
		warmup: 12,
		gen: func(rng *rand.Rand, ref *reference) (*plan, error) {
			sel := fmt.Sprintf("SELECT a.event_id, a.run, a.v0, a.v1, b.v0 AS r_v0, b.v1 AS r_v1 FROM %s a JOIN %s b ON a.event_id = b.event_id", tblRun100, tblReplica)
			rg, err := ref.ranged(sel + " ORDER BY a.event_id")
			if err != nil {
				return nil, err
			}
			// The range is stated on both sides: unity pushes a predicate only
			// to the table it names, and with one side unfiltered the op pulls
			// that mart table whole (20 000 rows), costs twice as much and
			// leaves too few samples per window (see README, Findings).
			return rangePlan(rng, rg, opQuery, joinQueries, joinRows,
				sel+" WHERE a.event_id >= %[1]d AND a.event_id <= %[2]d AND b.event_id >= %[1]d AND b.event_id <= %[2]d")
		},
		guard: func(ctx context.Context, b *bench, delta counters) error {
			if err := b.explainIs(ctx, "route", "unity-decomposed"); err != nil {
				return err
			}
			if err := b.explainIs(ctx, "operator", "pipelined hash-join"); err != nil {
				return err
			}
			if delta[cUnity] == 0 {
				return fmt.Errorf("no query took the unity route during warm-up")
			}
			return delta.wantMisses()
		},
	},
	{
		name:   "relay_scan",
		why:    "2000-row cursor scans of a table on the peer server, paged 500 rows at a time: per-row work (peer scan, binary relay frame, XML encode, client decode) dominates (Table 1: 2 servers; Fig. 6)",
		warmup: 8,
		gen: func(rng *rand.Rand, ref *reference) (*plan, error) {
			sel := fmt.Sprintf("SELECT %s FROM %s", strings.Join(starColumns(), ", "), tblRun102)
			rg, err := ref.ranged(sel + " ORDER BY event_id")
			if err != nil {
				return nil, err
			}
			return rangePlan(rng, rg, opScan, scanQueries, scanRows, sel+" WHERE event_id >= %d AND event_id <= %d")
		},
		guard: func(ctx context.Context, b *bench, delta counters) error {
			if err := b.explainIs(ctx, "route", "remote"); err != nil {
				return err
			}
			if err := b.explainIs(ctx, "relay", "binary"); err != nil {
				return err
			}
			if delta[cRelayFetches] == 0 {
				return fmt.Errorf("relay_fetches = 0 after warm-up: scans did not ride the cursor relay")
			}
			if delta[cRelayFallbacks] != 0 {
				return fmt.Errorf("relay_fallbacks = %d, want 0 (binary relay downgraded)", delta[cRelayFallbacks])
			}
			return delta.wantMisses()
		},
	},
	{
		name:   "cached_refresh",
		why:    "64 aggregate queries that fit the cache, with every 200th op re-materializing the mart table half of them read: cache hits, dependency invalidation and warehouse refresh beside reads",
		warmup: 5 * refreshEvery,
		gen: func(rng *rand.Rand, ref *reference) (*plan, error) {
			p := &plan{}
			for i := 0; i < cachedQueries; i++ {
				table := tblHot
				if i >= cachedQueries/2 {
					table = tblRun101
				}
				// One threshold per query, distinct by construction.
				thr := 30 + float64(i%(cachedQueries/2)) + rng.Float64()
				p.queries = append(p.queries, fmt.Sprintf("SELECT run, COUNT(*) AS n, AVG(v0) AS mean_v0 FROM %s WHERE v1 > %.4f GROUP BY run", table, thr))
			}
			var err error
			if p.answers, err = ref.answers(p.queries); err != nil {
				return nil, err
			}
			// Reads walk seeded permutations of the 64 queries back to back,
			// so every query recurs evenly and each refresh costs exactly
			// one miss per dependent query.
			var reads []int
			for len(p.seq) < cachedCycles*refreshEvery {
				if len(p.seq)%refreshEvery == 0 {
					p.seq = append(p.seq, op{kind: opRefresh})
					continue
				}
				if len(reads) == 0 {
					reads = rng.Perm(cachedQueries)
				}
				p.seq = append(p.seq, op{kind: opQuery, query: reads[0]})
				reads = reads[1:]
			}
			return p, nil
		},
		guard: func(ctx context.Context, b *bench, delta counters) error {
			if delta[cInvalidations] == 0 {
				return fmt.Errorf("invalidations = 0 after warm-up: refreshes did not evict dependent entries")
			}
			if r := delta.hitRatio(); r < 0.70 || r > 0.98 {
				return fmt.Errorf("cache hit ratio %.3f outside 0.70-0.98", r)
			}
			return nil
		},
	},
}

// rangePlan builds a plan of nQueries distinct contiguous ranges of
// nRows rows each over rg's ids, visited in order. A table too small for
// that (the tests' deployments) gets ranges of half its rows.
func rangePlan(rng *rand.Rand, rg *ranged, kind opKind, nQueries, nRows int, format string) (*plan, error) {
	nRows = min(nRows, len(rg.ids)/2)
	if nRows == 0 {
		return nil, fmt.Errorf("table has %d rows, too few to range over", len(rg.ids))
	}
	starts := len(rg.ids) - nRows + 1
	p := &plan{}
	for i, at := range rng.Perm(starts)[:min(nQueries, starts)] {
		p.queries = append(p.queries, fmt.Sprintf(format, rg.ids[at], rg.ids[at+nRows-1]))
		p.answers = append(p.answers, rg.answer(at, nRows))
		p.seq = append(p.seq, op{kind: kind, query: i})
	}
	return p, nil
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// counters are front's server-side counts that the guards and the
// per-layer probes read, as one snapshot or as the difference of two.
type counters [nCounters]int64

const (
	cRAL = iota // Stats: queries answered by POOL-RAL
	cUnity
	cRLSLookups
	cBinForwards
	cRelayFetches // CursorStats
	cRelayFallbacks
	cHits // CacheStats
	cMisses
	cEvictions
	cInvalidations
	cRejected
	cAdmitQueued // LoadStats
	cFedQueries  // Federation.Stats
	cFedSubqueries
	cFedPushdowns
	nCounters
)

func (d *deployment) counters() counters {
	svc := d.front.Service
	st, cur, cs := svc.Stats(), svc.CursorStats(), svc.CacheStats()
	q, sq, pd := svc.Federation().Stats()
	return counters{
		cRAL: st.RAL.Load(), cUnity: st.Unity.Load(),
		cRLSLookups: st.RLSLookups.Load(), cBinForwards: st.BinForwards.Load(),
		cRelayFetches: cur.RelayFetches, cRelayFallbacks: cur.RelayFallbacks,
		cHits: cs.Hits, cMisses: cs.Misses, cEvictions: cs.Evictions,
		cInvalidations: cs.Invalidations, cRejected: cs.Rejected,
		cAdmitQueued: svc.LoadStats().AdmittedQueued,
		cFedQueries:  q, cFedSubqueries: sq, cFedPushdowns: pd,
	}
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) hitRatio() float64 {
	if c[cHits]+c[cMisses] == 0 {
		return 0
	}
	return float64(c[cHits]) / float64(c[cHits]+c[cMisses])
}

// wantMisses is the guard of the workloads meant to bypass the cache.
func (c counters) wantMisses() error {
	if r := c.hitRatio(); r > 0.05 {
		return fmt.Errorf("cache hit ratio %.3f, want <= 0.05: the working set is meant to miss", r)
	}
	return nil
}
