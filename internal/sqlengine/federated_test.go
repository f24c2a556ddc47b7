package sqlengine_test

// The generated differential over a federation: the statements
// TestSelectDifferential runs (differential_test.go, in their federated
// form), answered by the federation — pushed down whole, or run on the
// operator pipeline over the members' cursors and the peer's stream,
// subqueries included — and by one engine holding all three tables. The
// federation has two layouts, with c at a peer in both. In the split
// layout, a is on a MySQL member database and b on an MS-SQL one, under
// their own names. In the renamed layout, a and b share one MySQL member
// under physical names that differ from their logical ones (a is A_T, and
// a.k is A_T.A_K where b.k is B_T.B_K), so a statement over a and b alone
// may push down whole through the dictionary's name mapping. The answers
// must agree on error-or-not, on their column labels and on the rows as
// a multiset. A statement with a LIMIT or OFFSET compares its row count
// only: without a total ORDER BY it may take any of the rows. A third of the statements that
// end unordered get a total ORDER BY (every output column) and compare
// in order. Every statement runs on two federations of each layout: one
// at the default scratch budget and one with a 1-byte budget, where every
// join build and every sort spills to disk. A
// federation may join tied rows in another order than one engine, so a
// LIMIT may take other rows; under a UNION that drops duplicates that
// changes how many of them are duplicates, so such a statement's rows are
// checked by value instead (checkDedupedLimit).

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

type layoutFed struct {
	layout string
	fed    *unity.Federation
}

type federatedFixture struct {
	// feds are each layout's default-budget federation and its
	// 1-byte-budget one.
	feds  []layoutFed
	peers map[string]unity.PeerTable
	ref   *sqlengine.Engine
	// widths are the tables' column counts.
	widths map[string]int
	// checked counts the seeds check ran; spilledJoins the statements
	// whose join build spilled; prunedPlans the statements whose plan
	// has a load that selects fewer columns than its table has; joinPushdowns
	// the statements over a and b that the renamed layout pushed down
	// whole; resolved and ambiguous the statements with a bare column name
	// that one engine answered and that it failed as an ambiguous column
	// reference.
	checked, spilledJoins, prunedPlans, joinPushdowns int
	resolved, ambiguous                               int
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
	widths := map[string]int{}
	for _, table := range []string{"a", "b", "c"} {
		if err := ref.ExecScript(scripts[table]); err != nil {
			tb.Fatal(err)
		}
		rs, err := ref.Query("SELECT * FROM " + table)
		if err != nil {
			tb.Fatal(err)
		}
		widths[table] = len(rs.Columns)
	}

	split := &xspec.UpperSpec{Name: "fdiff"}
	lowers := map[string]*xspec.LowerSpec{}
	member := func(upper *xspec.UpperSpec, e *sqlengine.Engine) *xspec.LowerSpec {
		name, d := e.Name(), e.Dialect()
		sqldriver.RegisterEngine(e)
		tb.Cleanup(func() { sqldriver.UnregisterEngine(name) })
		spec, err := xspec.Generate(name, d.Name, e)
		if err != nil {
			tb.Fatal(err)
		}
		lowers[name] = spec
		upper.Sources = append(upper.Sources, xspec.SourceRef{Name: name, URL: "local://" + name, Driver: d.DriverName})
		return spec
	}
	for table, d := range map[string]*sqlengine.Dialect{"a": sqlengine.DialectMySQL, "b": sqlengine.DialectMSSQL} {
		member(split, engine("fdiff_"+table, table, d))
	}
	renamed := &xspec.UpperSpec{Name: "fdiff_renamed"}
	spec := member(renamed, renamedMember(tb, ref, "fdiff_ab"))
	for i := range spec.Tables {
		t := &spec.Tables[i]
		t.Logical = strings.TrimSuffix(strings.ToLower(t.Name), "_t")
		for j := range t.Columns {
			t.Columns[j].Logical = strings.TrimPrefix(strings.ToLower(t.Columns[j].Name), t.Logical+"_")
		}
	}
	peer := engine("fdiff_c", "c", sqlengine.DialectANSI)
	openPeer := func(_ context.Context, _, sqlText string) (sqlengine.RowIter, error) {
		rs, err := peer.Query(sqlText)
		if err != nil {
			return nil, err
		}
		return sqlengine.SliceIter(rs), nil
	}
	fx := &federatedFixture{
		peers:  map[string]unity.PeerTable{"c": {Location: "peer://c", Columns: []string{"k", "z"}}},
		ref:    ref,
		widths: widths,
	}
	for _, upper := range []*xspec.UpperSpec{split, renamed} {
		for _, budget := range []int64{0, 1} {
			fed, err := unity.Open(upper, lowers)
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { fed.Close() })
			fed.OpenPeer = openPeer
			fed.ScratchMaxBytes = budget
			fx.feds = append(fx.feds, layoutFed{strings.TrimPrefix(upper.Name, "fdiff_"), fed})
		}
	}
	return fx
}

// renamedMember returns a MySQL engine holding ref's tables a and b, and
// their rows, under physical names: table a as A_T, its column k as A_K.
func renamedMember(tb testing.TB, ref *sqlengine.Engine, name string) *sqlengine.Engine {
	tb.Helper()
	e := sqlengine.NewEngine(name, sqlengine.DialectMySQL)
	for _, table := range []string{"a", "b"} {
		desc, err := ref.Query("DESCRIBE " + table)
		if err != nil {
			tb.Fatal(err)
		}
		cols := make([]string, len(desc.Rows))
		for i, c := range desc.Rows {
			cols[i] = strings.ToUpper(table+"_"+c[0].Str()) + " " + c[1].Str()
			if c[3].Str() == "PRI" {
				cols[i] += " PRIMARY KEY"
			}
		}
		phys := strings.ToUpper(table + "_t")
		script := fmt.Sprintf("CREATE TABLE %s (%s)", phys, strings.Join(cols, ", "))
		rs, err := ref.Query("SELECT * FROM " + table)
		if err != nil {
			tb.Fatal(err)
		}
		for _, row := range rs.Rows {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = v.SQLLiteral()
			}
			script += fmt.Sprintf(";\nINSERT INTO %s VALUES (%s)", phys, strings.Join(vals, ", "))
		}
		if err := e.ExecScript(script); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

func (fx *federatedFixture) query(fed *unity.Federation, sql string) (*sqlengine.ResultSet, error) {
	plan, err := fed.PlanQueryAt(sql, fx.peers)
	if err != nil {
		return nil, err
	}
	if fed == fx.feds[0].fed && slices.ContainsFunc(plan.Subs, func(s unity.SubQuery) bool {
		return s.Columns != nil && len(s.Columns) < fx.widths[s.Table]
	}) {
		fx.prunedPlans++
	}
	if fed == fx.feds[2].fed && plan.Pushdown && len(plan.Tables) > 1 {
		fx.joinPushdowns++
	}
	it, ex, err := fed.ExecuteStreamOp(context.Background(), plan)
	if err != nil {
		return nil, err
	}
	rs, err := sqlengine.Drain(it)
	if ex.Stats != nil && ex.Stats.SpillPartitions > 0 {
		fx.spilledJoins++
	}
	return rs, err
}

// check runs one seed's statement on the federation and the reference.
func (fx *federatedFixture) check(t *testing.T, seed int64) {
	fx.checked++
	sql, bare := sqlengine.GenFederatedSelect(seed)
	want, werr := fx.ref.Query(sql)
	switch {
	case !bare:
	case werr == nil:
		fx.resolved++
	case strings.Contains(werr.Error(), "ambiguous column reference"):
		fx.ambiguous++
	}
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
	for _, lf := range fx.feds {
		got, gerr := fx.query(lf.fed, sql)
		fail := func(format string, args ...interface{}) {
			t.Helper()
			t.Fatalf("seed %d (%s layout, scratch budget %d): %s\n  sql: %s\n  replay: %s",
				seed, lf.layout, lf.fed.ScratchMaxBytes, fmt.Sprintf(format, args...), sql, sqlengine.Replay("TestFederatedDifferential", federatedSeeds, "FuzzFederatedDifferential", seed))
		}
		switch {
		case (gerr == nil) != (werr == nil):
			fail("federation error %v, one engine's error %v", gerr, werr)
		case gerr != nil:
			continue
		case strings.Join(got.Columns, ",") != strings.Join(want.Columns, ","):
			fail("columns %v, one engine's %v", got.Columns, want.Columns)
		case limited(sql) && dedupsLimited(sql):
			if err := fx.checkDedupedLimit(got.Rows, sql); err != nil {
				fail("%v", err)
			}
			continue
		case limited(sql):
			if len(got.Rows) != len(want.Rows) {
				fail("%d rows, one engine %d", len(got.Rows), len(want.Rows))
			}
			continue
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
}

func limited(sql string) bool {
	return strings.Contains(sql, " LIMIT ") || strings.Contains(sql, " OFFSET ")
}

// checkDedupedLimit checks the rows a federation returned for a statement
// of the dedupsLimited shape: no two are equal, and each is a row of one
// engine's answer to the statement without its LIMIT and OFFSET. Which
// rows the LIMIT takes, and so how many of them the UNION drops, depends
// on the order of tied rows, so their count is not compared.
func (fx *federatedFixture) checkDedupedLimit(rows []sqlengine.Row, sql string) error {
	all, err := fx.ref.Query(limitClause.ReplaceAllString(sql, ""))
	if err != nil {
		return fmt.Errorf("one engine without the LIMIT: %v", err)
	}
	equal := func(a, b sqlengine.Row) bool {
		return slices.EqualFunc(a, b, func(x, y sqlengine.Value) bool { return sqlengine.Compare(x, y) == 0 })
	}
	for i, row := range rows {
		if slices.ContainsFunc(rows[:i], func(r sqlengine.Row) bool { return equal(r, row) }) {
			return fmt.Errorf("row %v repeats in %v", row, rows)
		}
		if !slices.ContainsFunc(all.Rows, func(r sqlengine.Row) bool { return equal(r, row) }) {
			return fmt.Errorf("row %v is not in one engine's unlimited answer %v", row, all.Rows)
		}
	}
	return nil
}

// limitClause matches the LIMIT and OFFSET the generator ends a statement
// with.
var limitClause = regexp.MustCompile(`( LIMIT \d+)?( OFFSET \d+)?$`)

// dedupsLimited reports whether a limited statement's rows then pass a
// UNION that drops duplicates (the generator writes one UNION at most,
// and binds its LIMIT/OFFSET to the last branch).
func dedupsLimited(sql string) bool {
	return strings.Contains(sql, " UNION ") && !strings.Contains(sql, " UNION ALL ")
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

// federatedSeeds is how many seeds TestFederatedDifferential runs.
const federatedSeeds = 600

func TestFederatedDifferential(t *testing.T) {
	fx := newFederatedFixture(t)
	const seeds = federatedSeeds
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { fx.check(t, seed) })
	}
	// The layout must keep exercising the Grace spill, column pruning and
	// the resolution of bare column names: a generator change that
	// stopped producing joins or bare names, or a planner that stopped
	// pruning, would otherwise pass silently. A -run that picks some of
	// the seeds (a replay) need not reach any of them.
	if fx.checked < seeds {
		return
	}
	if fx.spilledJoins == 0 {
		t.Fatal("no statement spilled a join build at the 1-byte budget")
	}
	if fx.prunedPlans == 0 {
		t.Fatal("no statement's plan pruned a load's columns")
	}
	if fx.joinPushdowns == 0 {
		t.Fatal("the renamed layout pushed down no statement over a and b")
	}
	if fx.resolved == 0 || fx.ambiguous == 0 {
		t.Fatalf("statements with a bare column name: %d resolved, %d ambiguous; want some of each", fx.resolved, fx.ambiguous)
	}
	t.Logf("%d statements spilled a join build, %d plans pruned a load, %d over a and b pushed down; bare column names: %d resolved, %d ambiguous",
		fx.spilledJoins, fx.prunedPlans, fx.joinPushdowns, fx.resolved, fx.ambiguous)
}

func FuzzFederatedDifferential(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	fx := newFederatedFixture(f)
	f.Fuzz(func(t *testing.T, seed int64) { fx.check(t, seed) })
}
