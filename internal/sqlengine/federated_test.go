package sqlengine_test

// The generated differential over a federation: the statements
// TestSelectDifferential runs (differential_test.go, in their federated
// form), with table a on a MySQL member database, b on an MS-SQL one and
// c at a peer, answered by the federation — pushed down whole, or run on
// the operator pipeline over the members' cursors and the peer's stream,
// subqueries included — and by one engine holding all three tables. They
// must agree on error-or-not and on the rows as a multiset. A statement
// with a LIMIT or OFFSET compares its row count only: without a total
// ORDER BY it may take any of the rows. A third of the statements that
// end unordered get a total ORDER BY (every output column) and compare
// in order.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

type federatedFixture struct {
	fed   *unity.Federation
	peers map[string]unity.PeerTable
	ref   *sqlengine.Engine
}

func newFederatedFixture(tb testing.TB) *federatedFixture {
	tb.Helper()
	scripts := sqlengine.DiffTableScripts()
	engine := func(name, table string, d *sqlengine.Dialect) *sqlengine.Engine {
		e := sqlengine.NewEngine(name, d)
		if err := e.ExecScript(scripts[table]); err != nil {
			tb.Fatal(err)
		}
		return e
	}
	ref := sqlengine.NewEngine("fdiff_ref", sqlengine.DialectANSI)
	for _, table := range []string{"a", "b", "c"} {
		if err := ref.ExecScript(scripts[table]); err != nil {
			tb.Fatal(err)
		}
	}

	upper := &xspec.UpperSpec{Name: "fdiff"}
	lowers := map[string]*xspec.LowerSpec{}
	for table, d := range map[string]*sqlengine.Dialect{"a": sqlengine.DialectMySQL, "b": sqlengine.DialectMSSQL} {
		name := "fdiff_" + table
		e := engine(name, table, d)
		sqldriver.RegisterEngine(e)
		tb.Cleanup(func() { sqldriver.UnregisterEngine(name) })
		spec, err := xspec.Generate(name, d.Name, e)
		if err != nil {
			tb.Fatal(err)
		}
		lowers[name] = spec
		upper.Sources = append(upper.Sources, xspec.SourceRef{Name: name, URL: "local://" + name, Driver: d.DriverName})
	}
	fed, err := unity.Open(upper, lowers)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fed.Close() })
	peer := engine("fdiff_c", "c", sqlengine.DialectANSI)
	fed.OpenPeer = func(_ context.Context, _, sqlText string) (sqlengine.RowIter, error) {
		rs, err := peer.Query(sqlText)
		if err != nil {
			return nil, err
		}
		return sqlengine.SliceIter(rs), nil
	}
	peers := map[string]unity.PeerTable{"c": {Location: "peer://c", Columns: []string{"k", "z"}}}
	return &federatedFixture{fed: fed, peers: peers, ref: ref}
}

func (fx *federatedFixture) query(sql string) (*sqlengine.ResultSet, error) {
	plan, err := fx.fed.PlanQueryAt(sql, fx.peers)
	if err != nil {
		return nil, err
	}
	return fx.fed.ExecuteContext(context.Background(), plan)
}

// check runs one seed's statement on the federation and the reference.
func (fx *federatedFixture) check(t *testing.T, seed int64) {
	sql := sqlengine.GenFederatedSelect(seed)
	want, werr := fx.ref.Query(sql)
	ordered := false
	if werr == nil && seed%3 == 0 && !strings.Contains(sql, " UNION ") && !strings.Contains(sql, " ORDER BY ") && !limited(sql) {
		keys := make([]string, len(want.Columns))
		for i := range keys {
			keys[i] = strconv.Itoa(i + 1)
		}
		sql += " ORDER BY " + strings.Join(keys, ", ")
		want, werr = fx.ref.Query(sql)
		ordered = true
	}
	got, gerr := fx.query(sql)
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("seed %d: %s\n  sql: %s\n  replay: go test ./internal/sqlengine -run 'TestFederatedDifferential/seed=%d$'",
			seed, fmt.Sprintf(format, args...), sql, seed)
	}
	switch {
	case (gerr == nil) != (werr == nil):
		fail("federation error %v, one engine's error %v", gerr, werr)
	case gerr != nil:
		return
	case strings.Join(got.Columns, ",") != strings.Join(want.Columns, ","):
		fail("columns %v, one engine's %v", got.Columns, want.Columns)
	case limited(sql):
		if len(got.Rows) != len(want.Rows) {
			fail("%d rows, one engine %d", len(got.Rows), len(want.Rows))
		}
		return
	}
	gk, wk := rowKeys(got.Rows), rowKeys(want.Rows)
	if !ordered {
		sort.Strings(gk)
		sort.Strings(wk)
	}
	if strings.Join(gk, "\n") != strings.Join(wk, "\n") {
		fail("rows (ordered=%v)\n  federation %v\n  one engine %v", ordered, got.Rows, want.Rows)
	}
}

func limited(sql string) bool {
	return strings.Contains(sql, " LIMIT ") || strings.Contains(sql, " OFFSET ")
}

// rowKeys encodes rows kind-exactly.
func rowKeys(rows []sqlengine.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%d|%s\x00", v.Kind, v.String())
		}
		keys[i] = sb.String()
	}
	return keys
}

func TestFederatedDifferential(t *testing.T) {
	fx := newFederatedFixture(t)
	for seed := int64(0); seed < 600; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { fx.check(t, seed) })
	}
}

func FuzzFederatedDifferential(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	fx := newFederatedFixture(f)
	f.Fuzz(func(t *testing.T, seed int64) { fx.check(t, seed) })
}
