package unity

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gridrdb/internal/sqlengine"
)

// Tests for peer locations: a table no member database hosts is one more
// load of the one decomposed plan, opened through Federation.OpenPeer.

// peerStub stands in for the data access layer's relay: it answers each
// peer load from an in-memory ANSI engine and records what it was asked.
type peerStub struct {
	eng *sqlengine.Engine

	mu     sync.Mutex
	opens  []string // "peer sql" per OpenPeer call
	closed int
}

func (p *peerStub) open(_ context.Context, peer, sqlText string) (sqlengine.RowIter, error) {
	rs, err := p.eng.Query(sqlText)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.opens = append(p.opens, peer+" "+sqlText)
	p.mu.Unlock()
	return &closeCountIter{RowIter: sqlengine.SliceIter(rs), p: p}, nil
}

type closeCountIter struct {
	sqlengine.RowIter
	p *peerStub
}

func (it *closeCountIter) Close() error {
	it.p.mu.Lock()
	it.p.closed++
	it.p.mu.Unlock()
	return it.RowIter.Close()
}

const runsPeer = "peer://tier1"

// runsOnPeer is buildFederation with runs moved off the federation: the
// MS-SQL member is unplugged and the same rows are served by a peer.
func runsOnPeer(t *testing.T) (*Federation, *peerStub, map[string]PeerTable) {
	t.Helper()
	f := buildFederation(t)
	if err := f.RemoveSource("tier2ms"); err != nil {
		t.Fatal(err)
	}
	p := &peerStub{eng: sqlengine.NewEngine("peer", sqlengine.DialectANSI)}
	if err := p.eng.ExecScript(`CREATE TABLE runs (run BIGINT PRIMARY KEY, detector VARCHAR(16));
		INSERT INTO runs VALUES (100,'CMS'),(101,'ATLAS')`); err != nil {
		t.Fatal(err)
	}
	f.OpenPeer = p.open
	return f, p, map[string]PeerTable{"runs": {Location: runsPeer}}
}

// singleEngine holds buildFederation's events and runs in one engine: the
// reference a federated answer must equal wherever the tables live.
func singleEngine(t *testing.T) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine("reference", sqlengine.DialectANSI)
	if err := e.ExecScript(`CREATE TABLE events (event_id BIGINT PRIMARY KEY, run BIGINT NOT NULL, e_tot DOUBLE);
		INSERT INTO events VALUES (1,100,5.5),(2,100,7.0),(3,101,2.5),(4,102,9.0);
		CREATE TABLE runs (run BIGINT PRIMARY KEY, detector VARCHAR(16));
		INSERT INTO runs VALUES (100,'CMS'),(101,'ATLAS');
		CREATE TABLE lookup (k BIGINT, v VARCHAR(8));
		INSERT INTO lookup VALUES (1,'a'),(2,'b')`); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPeerLoadSubQuery: a peer table's sub-query is SELECT * in ANSI over
// logical names, and a peer table referenced twice loads unfiltered.
// While the peer table's columns are unknown, a bare column of the WHERE
// may be its as well as the local table's — an ambiguous name, raised on
// every joined row — so neither load is filtered. The local side of the
// same plan selects the columns the statement reads. Once the peer
// table's columns are known not to hold that name, each load gets its
// own conjuncts, the bare one included.
func TestPeerLoadSubQuery(t *testing.T) {
	f, _, peers := runsOnPeer(t)
	const sql = `SELECT e.event_id FROM events e JOIN runs r ON e.run = r.run
		WHERE e_tot > 5 AND r.detector = 'CMS' AND detector <> 'LHCb'`
	plan, err := f.PlanQueryAt(sql, peers)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pushdown || len(plan.Subs) != 2 {
		t.Fatalf("plan = %+v, want two decomposed loads", plan)
	}
	ev, runs := plan.Subs[0], plan.Subs[1]
	if want := "SELECT `event_id`, `run`, `e_tot` FROM `events` `e`"; ev.Source != "tier2my" || ev.SQL != want {
		t.Errorf("local load = %+v, want %s on tier2my: runs may have e_tot", ev, want)
	}
	if runs.Source != runsPeer || runs.Table != "runs" {
		t.Errorf("peer load = %+v, want runs at %s", runs, runsPeer)
	}
	if want := `SELECT * FROM "runs" "r"`; runs.SQL != want {
		t.Errorf("peer sub-query = %s\nwant %s", runs.SQL, want)
	}
	if dep := plan.Dependencies(); !reflect.DeepEqual(dep, [][2]string{{"tier2my", "events"}, {runsPeer, "runs"}}) {
		t.Errorf("dependencies = %v", dep)
	}
	known, err := f.PlanQueryAt(sql, map[string]PeerTable{"runs": {Location: runsPeer, Columns: []string{"run", "detector"}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT `event_id`, `run`, `e_tot` FROM `events` `e` WHERE (`e_tot` > 5)"; known.Subs[0].SQL != want {
		t.Errorf("local load, peer columns known = %s\nwant %s", known.Subs[0].SQL, want)
	}
	if want := `SELECT "run", "detector" FROM "runs" "r" WHERE (("r"."detector" = 'CMS') AND ("detector" <> 'LHCb'))`; known.Subs[1].SQL != want {
		t.Errorf("peer load, columns known = %s\nwant %s", known.Subs[1].SQL, want)
	}

	twice, err := f.PlanQueryAt("SELECT a.run FROM runs a JOIN runs b ON a.run = b.run WHERE a.detector = 'CMS'", peers)
	if err != nil {
		t.Fatal(err)
	}
	if len(twice.Subs) != 1 || twice.Subs[0].SQL != `SELECT * FROM "runs"` {
		t.Errorf("doubly-referenced peer table: subs = %+v, want one unfiltered load", twice.Subs)
	}

	// A table in the dictionary is planned from the dictionary.
	local, err := f.PlanQueryAt("SELECT event_id FROM events", map[string]PeerTable{"events": {Location: runsPeer}})
	if err != nil {
		t.Fatal(err)
	}
	if !local.Pushdown || local.Subs[0].Source != "tier2my" {
		t.Errorf("hosted table planned at %+v, want the tier2my pushdown", local.Subs)
	}
}

// TestPeerLoadExecution: the executor opens a peer load through OpenPeer
// once per branch input — so a peer table in two UNION branches or a
// self-join stays pipelined — and once more when a subquery reads it,
// closes every stream it opened, counts one federation query, and answers
// what one engine would. A star over the peer table runs once the plan is
// given the table's columns, whose sub-query then lists them.
func TestPeerLoadExecution(t *testing.T) {
	ref := singleEngine(t)
	for _, tc := range []struct {
		name, sql string
		operator  string
		opens     int
		cols      []string // the peer table's columns, given to the plan
	}{
		{"join", "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run WHERE r.detector = 'CMS'",
			"pipelined hash-join(build=left)", 1, nil},
		{"two branches", "SELECT r.run FROM runs r WHERE r.detector = 'CMS' UNION ALL SELECT r.run FROM runs r",
			"pipelined union(scan, scan)", 2, nil},
		{"self-join", "SELECT a.run, b.detector FROM runs a JOIN runs b ON a.run = b.run",
			"pipelined hash-join(build=right)", 2, nil},
		{"aggregate", "SELECT r.detector, COUNT(*) FROM events e JOIN runs r ON e.run = r.run GROUP BY r.detector",
			"pipelined hash-join(build=left)", 1, nil},
		{"subquery", "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run WHERE e.run IN (SELECT run FROM events)",
			"pipelined hash-join(build=left)", 1, nil},
		{"subquery over the peer table", "SELECT e.event_id FROM events e WHERE e.run IN (SELECT run FROM runs WHERE detector = 'CMS')",
			"pipelined scan", 1, nil},
		{"star", "SELECT * FROM events e JOIN runs r ON e.run = r.run",
			"pipelined hash-join(build=left)", 1, []string{"run", "detector"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, p, peers := runsOnPeer(t)
			peers["runs"] = PeerTable{Location: runsPeer, Columns: tc.cols}
			plan, err := f.PlanQueryAt(tc.sql, peers)
			if err != nil {
				t.Fatal(err)
			}
			it, ex, err := f.ExecuteStreamOp(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Operator != tc.operator || plan.Explain().Operator != tc.operator {
				t.Errorf("operator = %q (explain %q), want %q", ex.Operator, plan.Explain().Operator, tc.operator)
			}
			got, err := sqlengine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowStrings(got.Rows), rowStrings(want.Rows); !reflect.DeepEqual(g, w) {
				t.Errorf("rows %q, one engine answers %q", g, w)
			}
			if len(p.opens) != tc.opens || p.closed != tc.opens {
				t.Errorf("peer loads opened %d (closed %d), want %d: %q", len(p.opens), p.closed, tc.opens, p.opens)
			}
			if q, _, push := f.Stats(); q != 1 || push != 0 {
				t.Errorf("federation counted %d queries, %d pushdowns; want 1, 0", q, push)
			}
			if tc.cols != nil && (strings.Contains(p.opens[0], "*") || !strings.Contains(p.opens[0], `"detector"`)) {
				t.Errorf("peer sub-query %q, want the given columns listed", p.opens[0])
			}
		})
	}

	// A star needs the peer table's columns: without them the plan names
	// the table, and executing it fails saying which table at which peer.
	f, _, peers := runsOnPeer(t)
	star, err := f.PlanQueryAt("SELECT * FROM events e JOIN runs r ON e.run = r.run", peers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(star.NeedColumns, []string{"runs"}) || star.Explain().Operator != "" {
		t.Errorf("need columns %v, operator %q; want [runs] and none", star.NeedColumns, star.Explain().Operator)
	}
	if _, _, err := f.ExecuteStreamOp(context.Background(), star); err == nil || !strings.Contains(err.Error(), "runs at "+runsPeer) {
		t.Errorf("err = %v, want one naming runs at %s", err, runsPeer)
	}

	// Without an opener the plan still forms; executing it says why it
	// cannot run.
	f.OpenPeer = nil
	plan, err := f.PlanQueryAt("SELECT r.run FROM runs r", peers)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ExecuteStreamOp(context.Background(), plan); err == nil || !strings.Contains(err.Error(), "no peer opener") {
		t.Errorf("err = %v, want the missing-opener error", err)
	}
}

// TestOuterJoinWhereStaysAboveTheJoin: a WHERE conjunct over the
// null-supplying side of an outer join must not be pushed into that
// side's load — the anti-join idiom would match every row. Checked
// against one engine holding both tables (a check against another path
// over the same loads would share their bug), with runs on a member
// database and on a peer.
func TestOuterJoinWhereStaysAboveTheJoin(t *testing.T) {
	ref := singleEngine(t)
	local := buildFederation(t)
	remote, _, peers := runsOnPeer(t)
	for _, tc := range []struct{ name, sql, operator string }{
		{"anti-join, pipelined", "SELECT e.event_id FROM events e LEFT JOIN runs r ON e.run = r.run WHERE r.detector IS NULL ORDER BY e.event_id",
			"pipelined hash-join(build=right)"},
		// The subquery shape, named for the scratch integration that once
		// served it.
		{"anti-join, scratch", "SELECT e.event_id FROM events e LEFT JOIN runs r ON e.run = r.run WHERE r.detector IS NULL AND e.run IN (SELECT run FROM events) ORDER BY e.event_id",
			"pipelined hash-join(build=right)"},
		{"anti-join, aggregated", "SELECT e.event_id, COUNT(*) FROM events e LEFT JOIN runs r ON e.run = r.run WHERE r.detector IS NULL GROUP BY e.event_id ORDER BY e.event_id",
			"pipelined hash-join(build=right)"},
		{"coalesce", "SELECT e.event_id FROM events e LEFT JOIN runs r ON e.run = r.run WHERE COALESCE(r.detector, 'none') = 'none' ORDER BY e.event_id",
			"pipelined hash-join(build=right)"},
		{"right join", "SELECT e.event_id FROM runs r RIGHT JOIN events e ON e.run = r.run WHERE r.detector IS NULL AND e.e_tot > 1 ORDER BY e.event_id",
			"pipelined hash-join(build=left)"},
		// The preserved side still filters at its source.
		{"preserved side", "SELECT e.event_id, r.detector FROM events e LEFT JOIN runs r ON e.run = r.run WHERE e.e_tot > 5 ORDER BY e.event_id",
			"pipelined hash-join(build=right)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ref.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			for where, f := range map[string]*Federation{"member database": local, "peer": remote} {
				plan, err := f.PlanQueryAt(tc.sql, peers)
				if err != nil {
					t.Fatal(err)
				}
				for _, sub := range plan.Subs {
					if sub.Table == "runs" && strings.Contains(strings.ToUpper(sub.SQL), "WHERE") {
						t.Errorf("runs on a %s: WHERE pushed below the outer join: %s", where, sub.SQL)
					}
					if sub.Table == "events" && strings.Contains(tc.sql, "e.e_tot >") && !strings.Contains(sub.SQL, "`e_tot` >") {
						t.Errorf("runs on a %s: preserved side lost its pushdown: %s", where, sub.SQL)
					}
				}
				it, ex, err := f.ExecuteStreamOp(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Operator != tc.operator {
					t.Errorf("runs on a %s: operator = %q, want %q", where, ex.Operator, tc.operator)
				}
				got, err := sqlengine.Drain(it)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
					t.Errorf("runs on a %s: rows %s, one engine answers %s", where, g, w)
				}
			}
		})
	}
}

// TestLateTypedPeerColumn: a column NULL for its first 1 100 rows and
// numeric after orders and aggregates as numbers in a statement with a
// subquery, with its table on a peer and on a member database alike, as
// one engine holding the table answers. Integrating on a scratch engine
// typed such a peer column from its first non-NULL values within a
// bounded prefix — as a string here — and answered (2001,10) (2002,100)
// (2000,9) and 9.
func TestLateTypedPeerColumn(t *testing.T) {
	var script strings.Builder
	script.WriteString("CREATE TABLE pt (id BIGINT PRIMARY KEY, x BIGINT);\nINSERT INTO pt VALUES ")
	for id := 0; id < 1100; id++ {
		fmt.Fprintf(&script, "(%d, NULL), ", id)
	}
	script.WriteString("(2000, 9), (2001, 10), (2002, 100)")
	ref := sqlengine.NewEngine("pt-reference", sqlengine.DialectANSI)
	if err := ref.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	remote, p, peers := runsOnPeer(t)
	if err := p.eng.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	peers["pt"] = PeerTable{Location: runsPeer}
	local := federate(t, member{"ptmy", sqlengine.DialectMySQL, script.String()})

	for _, sql := range []string{
		"SELECT p.id, p.x FROM pt p WHERE p.x IS NOT NULL AND p.id IN (SELECT id FROM pt) ORDER BY p.x",
		"SELECT MAX(p.x) FROM pt p WHERE p.id IN (SELECT id FROM pt)",
	} {
		want, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []struct {
			where, operator string
			f               *Federation
		}{{"peer", "pipelined scan", remote}, {"member database", "pushdown", local}} {
			plan, err := layout.f.PlanQueryAt(sql, peers)
			if err != nil {
				t.Fatal(err)
			}
			it, ex, err := layout.f.ExecuteStreamOp(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sqlengine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Operator != layout.operator {
				t.Errorf("pt on a %s: operator %q, want %q", layout.where, ex.Operator, layout.operator)
			}
			if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
				t.Errorf("pt on a %s: %s answers %s, one engine %s", layout.where, sql, g, w)
			}
		}
	}
}
