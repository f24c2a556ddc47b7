package unity

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gridrdb/internal/sqlengine"
)

// colsScripts create the tables of the column tests: a and ev on a
// MySQL member, b and rep (ev's replica) on an MS-SQL one, c at a peer.
var colsScripts = map[string]string{
	"a": `CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, x DOUBLE, s VARCHAR(8));
INSERT INTO a VALUES (1, 1, 1.5, 'p'), (2, 1, NULL, 'q'), (3, 2, 2.5, NULL), (4, NULL, 3.5, 'p'), (5, 3, 0.5, 'r'), (6, 2, 2.5, 'q')`,
	"b": `CREATE TABLE b (k DOUBLE, y INTEGER, s VARCHAR(8));
INSERT INTO b VALUES (1.0, 1, 'p'), (2.0, 2, 'q'), (2.0, 3, NULL), (2.5, 1, 'r'), (NULL, 2, 'p'), (3, 4, 'q')`,
	"c": `CREATE TABLE c (k INTEGER, z VARCHAR(8));
INSERT INTO c VALUES (1, 'u'), (2, 'w'), (2, 'w'), (NULL, 'u'), (4, 'x')`,
	"ev": `CREATE TABLE ev (event_id BIGINT PRIMARY KEY, run BIGINT, v0 DOUBLE, v1 DOUBLE, v2 DOUBLE);
INSERT INTO ev VALUES (1, 100, 0.5, 1.5, 2.5), (2, 100, 0.25, 1.25, 2.25), (3, 101, 0.75, 1.75, 2.75)`,
	"rep": `CREATE TABLE rep (event_id BIGINT PRIMARY KEY, run BIGINT, v0 DOUBLE, v1 DOUBLE, v2 DOUBLE);
INSERT INTO rep VALUES (1, 100, 0.5, 1.5, 2.5), (2, 100, 0.25, 1.25, 2.25), (3, 101, 0.75, 1.75, 2.75)`,
}

// colsFederation federates colsScripts' tables, with c at a peer served
// by peerStub, and returns one engine holding all five as the reference.
func colsFederation(t *testing.T) (*Federation, *peerStub, *sqlengine.Engine) {
	t.Helper()
	f := federate(t,
		member{"colsmy", sqlengine.DialectMySQL, colsScripts["a"] + ";\n" + colsScripts["ev"]},
		member{"colsms", sqlengine.DialectMSSQL, colsScripts["b"] + ";\n" + colsScripts["rep"]})
	p := &peerStub{eng: sqlengine.NewEngine("colspeer", sqlengine.DialectANSI)}
	ref := sqlengine.NewEngine("colsref", sqlengine.DialectANSI)
	for table, script := range colsScripts {
		if table == "c" {
			if err := p.eng.ExecScript(script); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.ExecScript(script); err != nil {
			t.Fatal(err)
		}
	}
	f.OpenPeer = p.open
	return f, p, ref
}

// TestLoadColumns pins the SELECT list of each decomposed load: the
// columns the statement reads of its table, all of them under a star,
// the first when it reads none, SELECT * for a peer table planned
// without columns — and that the plan answers as one engine does.
func TestLoadColumns(t *testing.T) {
	f, _, ref := colsFederation(t)
	cPeer := PeerTable{Location: "peer://c"}
	cKnown := PeerTable{Location: "peer://c", Columns: []string{"k", "z"}}
	for _, tc := range []struct {
		name, sql string
		c         PeerTable
		want      map[string]string // table -> the load's SQL up to FROM
	}{
		{"the benchmark's join", "SELECT a.event_id, a.run, a.v0, a.v1, b.v0 AS r_v0, b.v1 AS r_v1 FROM ev a JOIN rep b ON a.event_id = b.event_id " +
			"WHERE a.event_id >= 1 AND a.event_id <= 2 AND b.event_id >= 1 AND b.event_id <= 2", cPeer,
			map[string]string{"ev": "SELECT `event_id`, `run`, `v0`, `v1`", "rep": "SELECT [event_id], [v0], [v1]"}},
		{"star", "SELECT * FROM a JOIN b ON a.k = b.k", cPeer,
			map[string]string{"a": "SELECT `id`, `k`, `x`, `s`", "b": "SELECT [k], [y], [s]"}},
		{"table star", "SELECT b.*, a.id FROM a JOIN b ON a.k = b.k", cPeer,
			map[string]string{"a": "SELECT `id`, `k`", "b": "SELECT [k], [y], [s]"}},
		{"count star", "SELECT COUNT(*) FROM a CROSS JOIN b", cPeer,
			map[string]string{"a": "SELECT `id`", "b": "SELECT [k]"}},
		{"self-join under two aliases", "SELECT x.id, y.s FROM a x JOIN a y ON x.k = y.id JOIN b ON b.y = x.id", cPeer,
			map[string]string{"a": "SELECT `id`, `k`, `s`", "b": "SELECT [y]"}},
		{"correlated EXISTS, unqualified outer column", "SELECT a.x FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.y = id)", cPeer,
			map[string]string{"a": "SELECT `id`, `x`", "b": "SELECT [y]"}},
		{"unqualified columns", "SELECT id, y FROM a JOIN b ON a.k = b.k", cPeer,
			map[string]string{"a": "SELECT `id`, `k`", "b": "SELECT [k], [y]"}},
		{"union branches read different columns", "SELECT a.id FROM a JOIN b ON a.k = b.k UNION SELECT a.x FROM a", cPeer,
			map[string]string{"a": "SELECT `id`, `k`, `x`", "b": "SELECT [k]"}},
		{"peer table without columns", "SELECT a.id, c.z FROM a JOIN c ON a.k = c.k", cPeer,
			map[string]string{"a": "SELECT `id`, `k`", "c": "SELECT *"}},
		{"peer table with columns", "SELECT a.id FROM a JOIN c ON a.k = c.k", cKnown,
			map[string]string{"a": "SELECT `id`, `k`", "c": `SELECT "k"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := f.PlanQueryAt(tc.sql, map[string]PeerTable{"c": tc.c})
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, sub := range plan.Subs {
				got[sub.Table], _, _ = strings.Cut(sub.SQL, " FROM ")
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("load SELECT lists %q, want %q", got, tc.want)
			}
			it, _, err := f.ExecuteStreamOp(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := sqlengine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowStrings(rs.Rows), rowStrings(want.Rows); len(w) == 0 || !reflect.DeepEqual(g, w) || !reflect.DeepEqual(rs.Columns, want.Columns) {
				t.Errorf("federation answers %v %q, one engine %v %q", rs.Columns, g, want.Columns, w)
			}
		})
	}
}

// TestAmbiguousConjunctNotPushed: a WHERE conjunct over an unqualified
// column two tables of its scope have is ambiguous, and the statement
// raises that on the first row that reaches the filter. Pushed into both
// loads, a conjunct no row passes left no row to raise it on, and the
// federation answered no rows where one engine fails. The variant some
// rows pass fails either way; a column only one table has is still
// pushed. An ambiguous name in an ON condition keeps every conjunct of
// the WHERE above the join: a.x < 0 pushed into a's load left no joined
// row for the ON to raise on.
func TestAmbiguousConjunctNotPushed(t *testing.T) {
	f, _, ref := colsFederation(t)
	peers := map[string]PeerTable{"c": {Location: "peer://c", Columns: []string{"k", "z"}}}
	for _, sql := range []string{
		"SELECT a.id FROM a JOIN b ON a.k = b.k WHERE s = 'zzz'",
		"SELECT a.id FROM a JOIN c ON a.k = c.k WHERE k > 100",
		"SELECT a.id FROM a JOIN b ON a.k = b.k WHERE s = 'p'",
		"SELECT a.id FROM a JOIN b ON a.k = b.k AND a.k > k WHERE a.x < 0",
	} {
		if _, err := ref.Query(sql); err == nil || !strings.Contains(err.Error(), "ambiguous column reference") {
			t.Fatalf("%s: one engine's error %v, want an ambiguous column reference", sql, err)
		}
		plan, err := f.PlanQueryAt(sql, peers)
		if err != nil {
			t.Fatal(err)
		}
		it, _, err := f.ExecuteStreamOp(context.Background(), plan)
		if err == nil {
			var rs *sqlengine.ResultSet
			rs, err = sqlengine.Drain(it)
			if err == nil {
				t.Errorf("%s: federation answers %v, one engine fails", sql, rs.Rows)
				continue
			}
		}
		if !strings.Contains(err.Error(), "ambiguous column reference") {
			t.Errorf("%s: federation error %v, want an ambiguous column reference", sql, err)
		}
	}

	plan, err := f.PlanQueryAt("SELECT a.id FROM a JOIN b ON a.k = b.k WHERE x > 1", peers)
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT `id`, `k`, `x` FROM `a` WHERE (`x` > 1)"; plan.Subs[0].SQL != want {
		t.Errorf("a's load = %s, want %s", plan.Subs[0].SQL, want)
	}
}
