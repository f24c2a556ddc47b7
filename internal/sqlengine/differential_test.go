package sqlengine

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The generated differential: seeded SELECTs over a fixture with NULLs,
// duplicate keys, an INTEGER key joined to a DOUBLE one, keys 2^53 and
// 2^53 + 1 (which a float64 cannot tell apart) and a view, run by
// Engine.Query and by the materializing oracle (refexec_test.go). They
// must agree on error-or-not and on the rows, in order: the executor keeps
// the oracle's row order, so even a LIMIT without a total ORDER BY takes
// the same rows. Messages are not compared here: of a statement with two
// errors, the pipeline may meet either first where the oracle finished
// one phase before starting the next; TestStatementErrorsMatchOracle
// holds the messages of single errors.
//
// Outside aggregates the generator writes no expression that can fail on
// a value (no division, no arithmetic on strings) and, where a LIMIT
// applies, no product of two columns, which overflows int64 on the keys
// near 2^53: a pipeline stops pulling at a LIMIT where the oracle
// evaluated every row. For the same
// reason a branch with a LIMIT gets no invalid column reference in a
// place evaluated for some rows only (a join residual, a disjunct). A
// statement no LIMIT applies to may get aggregates that fail on some
// fixture rows only — SUM over a string column, SUM(1 / (k - 2)) over
// a.k, MAX(SQRT(x - 1)) over a.x — in its select list or HAVING: they
// raise only for a group that is output, so a HAVING that drops the
// failing group keeps the statement from failing, in the engine's
// accumulators as in the oracle's pass over the group's rows. The
// generator writes none of the aggregate expressions the oracle rejects
// and the executor now evaluates (an aggregate under a function, CASE, IS
// NULL, BETWEEN or IN; a non-output ORDER BY key of an aggregated
// statement): TestAggregateInExpressions holds those.
//
// A column reference is sometimes written bare. A bare name two tables
// in scope share is ambiguous, an invalid reference raised on the first
// row that reaches it, so the generator writes one only where no LIMIT
// applies to the statement. Where a LIMIT applies, a bare name is written
// only outside the FROM clause, where every table the reference sees is
// known, and only if exactly one of them has the column.

// diffTables lists the fixture's relations — numeric columns, then string
// columns — with the script creating each; the view comes last. a is
// stored in primary-key order and indexed on k (NULLs, duplicates), c on
// z, so a one-table branch over them may seek or read a key range
// (access.go) where the oracle scans.
var diffTables = []struct {
	name, script string
	num, str     []string
}{
	{"a", `CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, x DOUBLE, s VARCHAR(8));
INSERT INTO a VALUES (1, 1, 1.5, 'p'), (2, 1, NULL, 'q'), (3, 2, 2.5, NULL), (4, NULL, 3.5, 'p'), (5, 3, 0.5, 'r'), (6, 2, 2.5, 'q'),
  (7, 9007199254740992, 4.5, NULL), (8, 9007199254740993, NULL, 'p');
CREATE INDEX a_k ON a (k)`,
		[]string{"id", "k", "x"}, []string{"s"}},
	{"b", `CREATE TABLE b (k DOUBLE, y INTEGER, s VARCHAR(8));
INSERT INTO b VALUES (1.0, 1, 'p'), (2.0, 2, 'q'), (2.0, 3, NULL), (2.5, 1, 'r'), (NULL, 2, 'p'), (3, 4, 'q'),
  (9007199254740992, 5, 'q')`,
		[]string{"k", "y"}, []string{"s"}},
	{"c", `CREATE TABLE c (k INTEGER, z VARCHAR(8));
INSERT INTO c VALUES (1, 'u'), (2, 'w'), (2, 'w'), (NULL, 'u'), (4, 'x'), (9007199254740992, 'u'), (9007199254740993, 'x');
CREATE INDEX c_z ON c (z)`,
		[]string{"k"}, []string{"z"}},
	{"v", `CREATE VIEW v AS SELECT k, y FROM b WHERE y > 1`, []string{"k", "y"}, nil},
}

func diffFixture(tb testing.TB) *Engine {
	tb.Helper()
	e := NewEngine("diff", DialectANSI)
	for _, t := range diffTables {
		if err := e.ExecScript(t.script); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// selectGen writes one random SELECT.
type selectGen struct {
	r *rand.Rand
	// refs are the current branch's table aliases and their fixture rows.
	refs []diffRef
	// strict rules out invalid column references (the branch has a LIMIT).
	strict bool
	// federated writes for a federation of the tables (federated_test.go):
	// no view, which a federation has none of; no invalid column
	// reference, which a member database meets in a pushed conjunct before
	// a single row is joined; no ROWNUM, which numbers rows in the order
	// they happen to arrive.
	federated bool
	// fallible writes the aggregates that fail on some fixture rows, and
	// ambiguous bare column names; it is off when a LIMIT applies to the
	// statement, as a pipeline may stop before it pulls an aggregated
	// branch or reaches a row an ambiguous name is evaluated on.
	fallible bool
	// inFrom is set while the FROM clause is written: the tables in
	// scope are not all known yet.
	inFrom bool
	// bare records that the statement has an unqualified column name.
	bare bool
}

type diffRef struct {
	alias    string
	num, str []string
}

func (g *selectGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g *selectGen) chance(pct int) bool { return g.r.Intn(100) < pct }

// col returns a column of a random table in scope, qualified or, part of
// the time, bare; num asks for a numeric one.
func (g *selectGen) col(num bool) string {
	for {
		ref := g.refs[g.r.Intn(len(g.refs))]
		cols := ref.num
		if !num {
			cols = append(append([]string(nil), ref.num...), ref.str...)
		}
		if len(cols) > 0 {
			c := g.pick(cols...)
			if g.chance(20) && (g.fallible || !g.inFrom && g.scopeHas(c) == 1) {
				g.bare = true
				return c
			}
			return ref.alias + "." + c
		}
	}
}

// scopeHas counts the tables in scope with a column named c.
func (g *selectGen) scopeHas(c string) int {
	n := 0
	for _, ref := range g.refs {
		if slices.Contains(ref.num, c) || slices.Contains(ref.str, c) {
			n++
		}
	}
	return n
}

func (g *selectGen) lit() string { return g.pick("0", "1", "2", "2.5", "3", "'2'", "NULL") }

// pred writes a WHERE predicate over the tables in scope.
func (g *selectGen) pred() string {
	switch g.r.Intn(11) {
	case 0:
		return fmt.Sprintf("%s %s %s", g.col(true), g.pick("=", "<>", "<", "<=", ">", ">="), g.lit())
	case 9:
		return fmt.Sprintf("%s = %s", g.col(true), g.lit()) // an index probe, over a or c
	case 1:
		return fmt.Sprintf("%s IS %sNULL", g.col(false), g.pick("", "NOT "))
	case 2:
		return fmt.Sprintf("%s BETWEEN 1 AND %s", g.col(true), g.pick("2", "3"))
	case 3:
		if ref, ok := g.refWith("s"); ok || !g.strict {
			return fmt.Sprintf("%s.s LIKE '%s'", ref, g.pick("p%", "_", "%q"))
		}
		return g.col(false) + " IS NOT NULL"
	case 4:
		return fmt.Sprintf("%s IN (1, %s)", g.col(true), g.pick("2", "NULL", "2.5"))
	case 5:
		return fmt.Sprintf("%s %sIN (SELECT k FROM c%s)", g.col(true), g.pick("", "NOT "), g.pick("", " WHERE z = 'w'", " WHERE z = 'v'"))
	case 6:
		return fmt.Sprintf("%sEXISTS (SELECT 1 FROM c WHERE c.k = %s)", g.pick("", "NOT "), g.col(true))
	case 7:
		return fmt.Sprintf("(%s OR %s)", g.pred(), g.pred())
	case 8:
		return fmt.Sprintf("%s %s %s", g.col(true), g.pick("<", ">="), g.col(true))
	}
	if g.federated {
		return g.col(false) + " IS NOT NULL"
	}
	return "ROWNUM <= " + g.pick("2", "4")
}

// refWith returns an alias in scope with a column named c, or the first
// alias (an unknown-column error both executors must agree on) and false.
func (g *selectGen) refWith(c string) (string, bool) {
	for _, i := range g.r.Perm(len(g.refs)) {
		for _, s := range append(g.refs[i].num, g.refs[i].str...) {
			if s == c {
				return g.refs[i].alias, true
			}
		}
	}
	return g.refs[0].alias, false
}

// from writes the FROM clause of 1–3 tables (explicit joins first, then
// comma-joined tables, so text order is join order) and returns it with
// the equi-conjuncts the comma joins need in the WHERE.
func (g *selectGen) from() (string, []string) {
	g.refs = nil
	g.inFrom = true
	defer func() { g.inFrom = false }()
	n := 1 + g.r.Intn(3)
	var sb strings.Builder
	var comma, where []string
	for i := 0; i < n; i++ {
		n := len(diffTables)
		if g.federated {
			n-- // no view
		}
		t := diffTables[g.r.Intn(n)]
		ref := diffRef{alias: fmt.Sprintf("t%d", i+1), num: t.num, str: t.str}
		tr := t.name + " " + ref.alias
		switch {
		case i == 0:
			sb.WriteString(tr)
		case len(comma) > 0 || g.chance(25):
			comma = append(comma, tr)
			if g.chance(80) {
				where = append(where, fmt.Sprintf("%s = %s.k", g.col(true), ref.alias))
			}
		default:
			kind := g.pick("JOIN", "LEFT JOIN", "RIGHT JOIN", "INNER JOIN", "CROSS JOIN")
			fmt.Fprintf(&sb, " %s %s", kind, tr)
			if kind != "CROSS JOIN" {
				prev := g.col(true)
				g.refs = append(g.refs, ref)
				on := fmt.Sprintf("%s = %s.k", prev, ref.alias)
				switch g.r.Intn(6) {
				case 0:
					if y, ok := g.refWith("y"); ok || !g.strict {
						on = fmt.Sprintf("%s < %s.y", prev, y)
					}
				case 1:
					on += fmt.Sprintf(" AND %s > %s", g.col(true), g.col(true))
				case 2:
					on = fmt.Sprintf("%s.k = %s", ref.alias, prev)
				case 3:
					if !g.strict {
						on = fmt.Sprintf("k = %s.k", ref.alias) // unqualified: attribution or ambiguity
					}
				}
				fmt.Fprintf(&sb, " ON %s", on)
				continue
			}
		}
		g.refs = append(g.refs, ref)
	}
	for _, tr := range comma {
		sb.WriteString(", " + tr)
	}
	return sb.String(), where
}

// item writes one non-aggregate select-list expression.
func (g *selectGen) item() string {
	switch g.r.Intn(7) {
	case 0:
		return g.col(true) + " + " + g.pick("1", "0.5")
	case 1:
		// Two keys near 2^53 multiply past int64, so unless g.fallible the
		// product is replaced, after the same draws, by one that fits.
		l, r := g.col(true), g.col(true)
		if !g.fallible {
			r = "2"
		}
		return l + " * " + r
	case 2:
		return fmt.Sprintf("COALESCE(%s, %s)", g.col(true), g.pick("0", "-1"))
	case 3:
		return fmt.Sprintf("CASE WHEN %s > 1 THEN 'hi' ELSE 'lo' END", g.col(true))
	case 4:
		return "'lit'"
	}
	return g.col(false)
}

// agg writes one aggregate expression. Unless g.fallible, a failing form
// is replaced by COUNT(*) after the same draws, so the rest of the
// statement is the one the seed writes with it.
func (g *selectGen) agg() string {
	failing := func(col, form string) string {
		if ref, ok := g.refWith(col); ok && g.fallible {
			return fmt.Sprintf(form, ref)
		}
		return "COUNT(*)"
	}
	switch g.r.Intn(11) {
	case 0:
		return "COUNT(*)"
	case 1:
		return "COUNT(" + g.col(false) + ")"
	case 2:
		return "COUNT(DISTINCT " + g.col(true) + ")"
	case 3:
		return "SUM(" + g.col(true) + ")"
	case 4:
		return "AVG(" + g.col(true) + ")"
	case 5:
		return "SUM(" + g.col(true) + ") + 1"
	case 6:
		return "-MIN(" + g.col(true) + ")"
	case 8:
		return failing("s", "SUM(%s.s)")
	case 9:
		return failing("x", "SUM(1 / (%s.k - 2))")
	case 10:
		return failing("x", "MAX(SQRT(%s.x - 1))")
	}
	return g.pick("MIN", "MAX") + "(" + g.col(false) + ")"
}

// having writes a HAVING condition. Some drop groups a failing aggregate
// fails on: COUNT(s) = 0 those with a string in s, MIN(x) > 0.5 those
// with x = 0.5, MIN(k) <> 2 some of those with k = 2.
func (g *selectGen) having() string {
	switch g.r.Intn(7) {
	case 1:
		return "COUNT(*) >= 1 AND SUM(" + g.col(true) + ") > 2"
	case 2:
		return "MAX(" + g.col(true) + ") < 3"
	case 3:
		return "MIN(" + g.col(true) + ") <> 2"
	case 4:
		return g.agg() + " >= 0"
	case 5:
		if ref, ok := g.refWith("s"); ok {
			return "COUNT(" + ref + ".s) = 0"
		}
	case 6:
		if ref, ok := g.refWith("x"); ok {
			return "MIN(" + ref + ".x) > 0.5"
		}
	}
	return "COUNT(*) > 1"
}

// branch writes one SELECT of the given width (0: any) and returns it
// with its width.
func (g *selectGen) branch(width int) (string, int) {
	limit := g.chance(30)
	g.strict = limit || g.federated
	from, where := g.from()
	for i := g.r.Intn(3); i > 0; i-- {
		where = append(where, g.pred())
	}
	aggregated := g.chance(30)
	distinct := g.chance(20)
	var items, groupBy []string
	switch {
	case aggregated:
		for i := g.r.Intn(3); i > 0; i-- {
			c := g.col(false)
			groupBy = append(groupBy, c)
			items = append(items, c)
		}
		for len(items) == 0 || (width == 0 && g.chance(40)) {
			items = append(items, g.agg())
		}
	case width == 0 && g.chance(15):
		items = []string{g.pick("*", g.refs[0].alias+".*")}
	default:
		for len(items) == 0 || (width == 0 && g.chance(50)) {
			items = append(items, g.item())
		}
	}
	for width > 0 && len(items) < width {
		if aggregated {
			items = append(items, g.agg())
		} else {
			items = append(items, g.item())
		}
	}
	if width > 0 {
		items = items[:width]
	}
	for i := range items {
		if items[i] != "*" && !strings.HasSuffix(items[i], ".*") && g.chance(20) {
			items[i] += fmt.Sprintf(" AS c%d", i+1)
		}
	}

	var sb strings.Builder
	sb.WriteString("SELECT ")
	if distinct {
		sb.WriteString("DISTINCT ")
	}
	sb.WriteString(strings.Join(items, ", ") + " FROM " + from)
	if len(where) > 0 {
		sb.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if len(groupBy) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
	}
	if aggregated && g.chance(50) {
		sb.WriteString(" HAVING " + g.having())
	}
	if g.chance(50) {
		var keys []string
		for i := 1 + g.r.Intn(2); i > 0; i-- {
			key := fmt.Sprint(1 + g.r.Intn(len(items)))
			switch {
			case g.chance(3):
				key = "9" // out of range
			case aggregated:
				// Ordinals only: any other key may not be an output column.
			case distinct && !g.chance(10):
			case g.chance(40):
				key = g.item() // usually not an output column
			case g.chance(30) && !strings.Contains(items[0], "*"):
				key = strings.SplitN(items[0], " AS ", 2)[0]
			}
			keys = append(keys, key+g.pick("", " DESC"))
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if limit {
		fmt.Fprintf(&sb, " LIMIT %d", 1+g.r.Intn(5))
	}
	if g.chance(15) {
		fmt.Fprintf(&sb, " OFFSET %d", g.r.Intn(4))
	}
	return sb.String(), len(items)
}

// genSelect writes the statement for one seed: a branch, or a UNION
// [ALL] of two (their widths equal but for the odd mismatch). The
// statement may have failing aggregates unless a LIMIT applies to it.
// It reports whether the statement has a bare column name.
func genSelect(seed int64, federated bool) (string, bool) {
	if sql, bare := genStatement(seed, federated, true); !strings.Contains(sql, " LIMIT ") {
		return sql, bare
	}
	return genStatement(seed, federated, false)
}

func genStatement(seed int64, federated, fallible bool) (string, bool) {
	g := &selectGen{r: rand.New(rand.NewSource(seed)), federated: federated, fallible: fallible}
	if !g.chance(20) {
		sql, _ := g.branch(0)
		return sql, g.bare
	}
	width := 1 + g.r.Intn(2)
	first, _ := g.branch(width)
	if g.chance(5) {
		width++
	}
	second, _ := g.branch(width)
	// ORDER BY / LIMIT bind to the last branch only; keep the first plain.
	if i := strings.Index(first, " ORDER BY"); i >= 0 {
		first = first[:i]
	} else if i := strings.Index(first, " LIMIT"); i >= 0 {
		first = first[:i]
	} else if i := strings.Index(first, " OFFSET"); i >= 0 {
		first = first[:i]
	}
	return first + g.pick(" UNION ", " UNION ALL ") + second, g.bare
}

// failingAgg matches the aggregates agg writes that fail on some rows.
var failingAgg = regexp.MustCompile(`SUM\(t\d\.s\)|SUM\(1 / |MAX\(SQRT\(`)

// checkSelect runs one seed's statement on both executors and returns it
// with whether it failed.
func checkSelect(t *testing.T, e *Engine, seed int64) (sql string, failed bool) {
	sql, _ = genSelect(seed, false)
	got, gerr := e.Query(sql)
	want, werr := refQuery(e, sql)
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("seed %d: %s\n  sql: %s\n  replay: %s",
			seed, fmt.Sprintf(format, args...), sql, Replay("TestSelectDifferential", selectSeeds, "FuzzSelectDifferential", seed))
	}
	switch {
	case (gerr == nil) != (werr == nil):
		fail("engine error %v, oracle error %v", gerr, werr)
	case gerr != nil:
		return sql, true
	case strings.Join(got.Columns, ",") != strings.Join(want.Columns, ","):
		fail("columns %v, oracle %v", got.Columns, want.Columns)
	}
	gk, wk := rowKeys(got.Rows), rowKeys(want.Rows)
	if strings.Join(gk, "\n") != strings.Join(wk, "\n") {
		fail("rows\n  engine %v\n  oracle %v", got.Rows, want.Rows)
	}
	return sql, false
}

// selectSeeds is how many seeds TestSelectDifferential runs.
const selectSeeds = 2000

func TestSelectDifferential(t *testing.T) {
	e := diffFixture(t)
	log := recordPaths(e)
	const seeds = selectSeeds
	var ran int
	fallible := map[bool]int{} // statements with a failing aggregate, by whether they failed
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			if sql, failed := checkSelect(t, e, seed); failingAgg.MatchString(sql) {
				fallible[failed]++
			}
		})
	}
	if ran < seeds {
		return // a replay of some seeds
	}
	// Without this, a generator that stopped writing failing aggregates,
	// or only wrote them where they raise, would pass every seed.
	t.Logf("statements with a failing aggregate: %d failed, %d did not", fallible[true], fallible[false])
	if fallible[true] == 0 || fallible[false] == 0 {
		t.Errorf("statements with a failing aggregate: %d failed, %d did not; want some of each", fallible[true], fallible[false])
	}
	// Without this, a seek that silently scans would pass every seed.
	taken := map[string]int{}
	for _, p := range log.take() {
		taken[p]++
	}
	t.Logf("paths taken: %v", taken)
	for _, p := range []string{"a:seek", "a:range", "c:seek", "a:scan"} {
		if taken[p] == 0 {
			t.Errorf("no statement read %s (paths taken: %v)", p, taken)
		}
	}
}

func FuzzSelectDifferential(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	e := diffFixture(f)
	f.Fuzz(func(t *testing.T, seed int64) { checkSelect(t, e, seed) })
}

// TestStatementErrorsMatchOracle: a statement the oracle rejects fails
// with the oracle's message, whether the error is found before any row
// (a UNION width mismatch, an unknown t.*), at the first row to sort, or
// when a failing aggregate is output — where an evaluation error wins
// over a non-numeric SUM value met on an earlier row.
func TestStatementErrorsMatchOracle(t *testing.T) {
	e := diffFixture(t)
	for _, sql := range []string{
		"SELECT id FROM a UNION SELECT k, y FROM b",
		"SELECT id FROM a UNION SELECT k FROM b UNION ALL SELECT k, z FROM c",
		"SELECT q.* FROM a",
		"SELECT id FROM a ORDER BY 3",
		"SELECT DISTINCT s FROM a ORDER BY x",
		"SELECT COUNT(*) FROM a GROUP BY k ORDER BY 2",
		"SELECT k FROM a t1 JOIN c t2 ON t1.k = t2.k",
		"SELECT t1.k FROM a t1 JOIN b t2 ON k = t2.k",
		"SELECT id FROM nosuch",
		"SELECT SUM(*) FROM a",
		"SELECT id FROM a WHERE COUNT(*) > 1",
		"SELECT id FROM a WHERE k IN (SELECT k, z FROM c)",
		"SELECT SUM(s) FROM a",
		"SELECT k, AVG(s) FROM a GROUP BY k HAVING COUNT(*) > 1",
		"SELECT k, SUM(1 / (k - 2)) FROM a GROUP BY k",
		"SELECT SUM(CASE WHEN id = 6 THEN 1 / 0 ELSE s END) FROM a",
	} {
		_, gerr := e.Query(sql)
		_, werr := refQuery(e, sql)
		if gerr == nil || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("%s:\n engine %v\n oracle %v", sql, gerr, werr)
		}
	}
	// Over no rows, the row-time errors are never met, nor an
	// aggregate's in a group HAVING drops.
	for _, sql := range []string{
		"SELECT id FROM a WHERE id > 9 ORDER BY 3",
		"SELECT DISTINCT s FROM a WHERE id > 9 ORDER BY x",
		"SELECT k, SUM(1 / (k - 2)) FROM a GROUP BY k HAVING MIN(k) <> 2",
		"SELECT s, MAX(SQRT(x - 1)) FROM a GROUP BY s HAVING COUNT(*) > 1",
	} {
		if _, err := e.Query(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
		if _, err := refQuery(e, sql); err != nil {
			t.Errorf("oracle %s: %v", sql, err)
		}
	}
}
