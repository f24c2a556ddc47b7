package sqlengine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Access paths (access.go) against the oracle, which always scans: every
// statement must get the same error-or-not and the same rows in the same
// order from Engine.Query as from refQuery, and the path hook shows which
// path the engine took — a seek that silently scanned would pass every
// comparison.

// checkAccess runs one SELECT over one table on the engine and on the
// oracle, and checks the engine read it by want ("table:path").
func checkAccess(t *testing.T, e *Engine, log *pathLog, want, sql string, params ...Value) {
	t.Helper()
	got, gerr := e.Query(sql, params...)
	paths := log.take()
	ref, rerr := refQuery(e, sql, params...)
	switch {
	case (gerr == nil) != (rerr == nil):
		t.Fatalf("%s %v: engine error %v, oracle error %v", sql, params, gerr, rerr)
	case gerr == nil && strings.Join(rowKeys(got.Rows), "\n") != strings.Join(rowKeys(ref.Rows), "\n"):
		t.Fatalf("%s %v:\n  engine %v\n  oracle %v", sql, params, got.Rows, ref.Rows)
	}
	if len(paths) != 1 || paths[0] != want {
		t.Errorf("%s %v: read %v, want %s", sql, params, paths, want)
	}
}

// TestAccessPathLifecycle follows one table through the writes that
// rebuild its indexes and its key order, checking a seek, a range and a
// scan after each.
func TestAccessPathLifecycle(t *testing.T) {
	e := NewEngine("access", DialectANSI)
	mustExec(t, e, `CREATE TABLE ev (id INTEGER PRIMARY KEY, run INTEGER, tag VARCHAR(8))`)
	mustExec(t, e, `CREATE INDEX ev_run ON ev (run)`)
	mustExec(t, e, `CREATE INDEX ev_tag_run ON ev (tag, run)`)
	mustExec(t, e, `CREATE TABLE names (name VARCHAR(8) PRIMARY KEY, n INTEGER)`)
	for id := 1; id <= 20; id++ {
		run := fmt.Sprint(id % 3)
		if id%7 == 0 {
			run = "NULL"
		}
		mustExec(t, e, fmt.Sprintf(`INSERT INTO ev VALUES (%d, %s, '%c')`, id, run, 'a'+id%4))
	}
	mustExec(t, e, `INSERT INTO names VALUES ('a', 1), ('b', 2), ('bb', 3), ('c', 4), ('d', 5)`)
	log := recordPaths(e)

	const point, between = `SELECT * FROM ev WHERE id = ?`, `SELECT * FROM ev e WHERE e.id BETWEEN ? AND ?`
	checkAccess(t, e, log, "ev:seek", point, NewInt(7))
	checkAccess(t, e, log, "ev:seek", point, NewFloat(7.0))
	checkAccess(t, e, log, "ev:seek", point, NewFloat(7.5))
	checkAccess(t, e, log, "ev:range", between, NewInt(3), NewFloat(9.5))
	checkAccess(t, e, log, "ev:range", `SELECT id FROM ev WHERE ? < id AND id <= 12 AND run IS NOT NULL`, NewInt(8))
	checkAccess(t, e, log, "ev:range", `SELECT id FROM ev WHERE id > 15 AND id < 3`)
	checkAccess(t, e, log, "ev:seek", `SELECT id FROM ev WHERE run = 2 AND id > 5`)
	checkAccess(t, e, log, "ev:seek", `SELECT id FROM ev WHERE run = 1 AND tag = 'b'`)
	checkAccess(t, e, log, "names:range", `SELECT * FROM names WHERE name >= 'b' AND name < 'c'`)
	checkAccess(t, e, log, "names:seek", `SELECT * FROM names WHERE 'bb' = name`)
	// Conjuncts that narrow nothing, or that could raise, keep the scan.
	checkAccess(t, e, log, "ev:scan", `SELECT id FROM ev WHERE run = '2'`)
	checkAccess(t, e, log, "ev:scan", `SELECT id FROM ev WHERE id = 5 OR id = 6`)
	checkAccess(t, e, log, "ev:scan", `SELECT id FROM ev WHERE id = 7 AND run / 0 = 1`)
	checkAccess(t, e, log, "ev:scan", point)
	checkAccess(t, e, log, "ev:scan", `SELECT id FROM ev WHERE id = 3 AND x.run = 1`)
	checkAccess(t, e, log, "ev:scan", `SELECT id FROM ev WHERE id = 3 AND ROWNUM <= 1`)
	// Unqualified, ROWNUM is the pseudo-column even beside a column of
	// that name.
	mustExec(t, e, `CREATE TABLE r ("rownum" INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, e, `INSERT INTO r VALUES (3, 1), (1, 2)`)
	checkAccess(t, e, log, "r:scan", `SELECT * FROM r WHERE rownum = 1`)
	checkAccess(t, e, log, "r:seek", `SELECT * FROM r WHERE r."rownum" = 1`)

	// An UPDATE moves key 3 to 103 in place: the index follows, the order
	// breaks, so a range scans.
	mustExec(t, e, `UPDATE ev SET id = id + 100 WHERE id = 3`)
	checkAccess(t, e, log, "ev:seek", point, NewInt(103))
	checkAccess(t, e, log, "ev:scan", between, NewInt(2), NewInt(200))
	mustExec(t, e, `DELETE FROM ev WHERE id = 103`)
	checkAccess(t, e, log, "ev:seek", point, NewInt(4))
	checkAccess(t, e, log, "ev:range", between, NewInt(2), NewInt(5))

	// An UPDATE that fails part-way (at id 2, after it has computed key
	// 101 for id 1) changes nothing: key 1 stays, the index and the order
	// still find it, and a second key 1 is refused.
	if n, err := e.Exec(`UPDATE ev SET id = id + 100, run = 10 / (id - 2)`); err == nil || n != 0 {
		t.Fatalf("UPDATE dividing by zero: %d rows, error %v; want 0 rows and an error", n, err)
	}
	checkAccess(t, e, log, "ev:seek", point, NewInt(1))
	checkAccess(t, e, log, "ev:seek", point, NewInt(101))
	checkAccess(t, e, log, "ev:range", between, NewInt(1), NewInt(5))
	if _, err := e.Exec(`INSERT INTO ev VALUES (1, 0, 'y')`); err == nil {
		t.Error("a second key 1 was accepted after the failed UPDATE")
	}

	// A rolled-back transaction restores the rows, the index and the order.
	s := e.NewSession()
	for _, sql := range []string{`BEGIN`, `DELETE FROM ev WHERE id < 10`, `INSERT INTO ev VALUES (1, 1, 'z')`, `ROLLBACK`} {
		if _, _, err := s.Run(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	checkAccess(t, e, log, "ev:seek", point, NewInt(5))
	checkAccess(t, e, log, "ev:range", between, NewInt(1), NewInt(4))

	// An out-of-order INSERT leaves the equality seek and ends the range.
	mustExec(t, e, `INSERT INTO ev VALUES (0, 1, 'z')`)
	checkAccess(t, e, log, "ev:seek", point, NewInt(0))
	checkAccess(t, e, log, "ev:scan", between, NewInt(0), NewInt(2))

	mustExec(t, e, `DROP INDEX ev_run`)
	checkAccess(t, e, log, "ev:seek", `SELECT id FROM ev WHERE run = 1 AND tag = 'b'`)
	mustExec(t, e, `DROP INDEX ev_tag_run`)
	checkAccess(t, e, log, "ev:scan", `SELECT id FROM ev WHERE run = 1 AND tag = 'b'`)

	// Save and Load keep the indexes and recompute the order.
	mustExec(t, e, `DELETE FROM ev WHERE id = 0`)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	log2 := recordPaths(e2)
	checkAccess(t, e2, log2, "ev:seek", point, NewInt(11))
	checkAccess(t, e2, log2, "ev:range", between, NewInt(3), NewInt(6))
	checkAccess(t, e2, log2, "names:range", `SELECT * FROM names WHERE name > 'a'`)
}

// TestIndexKeyNegativeZero: −0.0 and 0.0 compare equal, so they share an
// index key — a UNIQUE column holds one of them, an index probe for 0 finds
// both, and DISTINCT keeps one.
func TestIndexKeyNegativeZero(t *testing.T) {
	e := NewEngine("negzero", DialectANSI)
	mustExec(t, e, `CREATE TABLE u (x DOUBLE UNIQUE)`)
	mustExec(t, e, `INSERT INTO u VALUES (0.0)`)
	if _, err := e.Exec(`INSERT INTO u VALUES (-0.0)`); err == nil {
		t.Error("UNIQUE column accepted -0.0 beside 0.0")
	}
	mustExec(t, e, `CREATE TABLE w (x DOUBLE)`)
	mustExec(t, e, `CREATE INDEX w_x ON w (x)`)
	mustExec(t, e, `INSERT INTO w VALUES (-0.0), (1), (0.0)`)
	if rs := mustQuery(t, e, `SELECT x FROM w WHERE x = 0`); len(rs.Rows) != 2 {
		t.Errorf("WHERE x = 0: %v, want both zeros", rs.Rows)
	}
	pos, ok := e.db.pin().tables["w"].lookupIndex([]string{"x"}, []Value{NewInt(0)})
	if !ok || fmt.Sprint(pos) != "[0 2]" {
		t.Errorf("probe for 0 found positions %v (index applied: %v), want [0 2]", pos, ok)
	}
	if rs := mustQuery(t, e, `SELECT DISTINCT x FROM w WHERE x = 0`); len(rs.Rows) != 1 {
		t.Errorf("DISTINCT zeros: %v, want one row", rs.Rows)
	}
}

// genAccess builds the table one access-path seed reads — a random key
// type, insert order and set of indexes, with duplicate and NULL keys in
// the non-unique index, ints beyond 2^53, −0.0 and NaN in a DOUBLE column
// and numeric-looking strings — and writes a SELECT over it whose WHERE is
// a conjunction of the forms an access path reads, now and then with one
// that rules the path out (one that can raise among them).
func genAccess(t *testing.T, seed int64) (e *Engine, sql string, params []Value) {
	r := rand.New(rand.NewSource(seed))
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	e = NewEngine("access", DialectANSI)

	strKey := r.Intn(3) == 0
	keyType := "INTEGER"
	var keys []Value
	if strKey {
		keyType = "VARCHAR(12)"
		for _, s := range []string{"", "0", "1", "10", "2", "7", "7.0", " 7", "a", "ab", "b", "B"} {
			keys = append(keys, NewString(s))
		}
	} else {
		for _, n := range []int64{-(1 << 62), -5, -1, 0, 1, 2, 3, 5, 7, 8, 13, 21, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1 << 62} {
			keys = append(keys, NewInt(n))
		}
	}
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE f (id %s PRIMARY KEY, k INTEGER, d DOUBLE, s VARCHAR(8))`, keyType))
	for _, idx := range []string{`CREATE INDEX f_k ON f (k)`, `CREATE INDEX f_sk ON f (s, k)`, `CREATE INDEX f_d ON f (d)`} {
		if r.Intn(2) == 0 {
			mustExec(t, e, idx)
		}
	}

	// Keys in Compare order, then shuffled, or with a few swapped.
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:r.Intn(len(keys)+1)]
	sortValues(keys)
	switch r.Intn(4) {
	case 0:
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	case 1:
		for n := r.Intn(3); n > 0 && len(keys) > 1; n-- {
			i, j := r.Intn(len(keys)), r.Intn(len(keys))
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	ks := []Value{Null(), NewInt(0), NewInt(1), NewInt(2), NewInt(7), NewInt(-1), NewInt(1 << 53), NewInt(1<<53 + 1), NewInt(1 << 62)}
	ds := []Value{Null(), NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(2.5), NewFloat(7), NewFloat(1e300), NewFloat(math.NaN())}
	ss := []Value{Null(), NewString("7"), NewString("7.0"), NewString(" 7"), NewString("a"), NewString(""), NewString("10"), NewString("9")}
	for _, id := range keys {
		// A key equal by Compare to an earlier one (2^53 + 1 after 2^53)
		// fails the primary key and is left out.
		_, _ = e.Exec(`INSERT INTO f VALUES (?, ?, ?, ?)`, id, ks[r.Intn(len(ks))], ds[r.Intn(len(ds))], ss[r.Intn(len(ss))])
	}

	from, q := "f", pick("", "f.")
	if r.Intn(3) == 0 {
		from, q = "f t", pick("", "t.")
	}
	col := func() string { return q + pick("id", "id", "k", "d", "s") }
	key := func() string {
		if r.Intn(4) == 0 {
			pool := []Value{NewInt(2), NewInt(1 << 53), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(2.5), NewString("7"), NewString("b"), Null()}
			params = append(params, pool[r.Intn(len(pool))])
			return "?"
		}
		return pick("0", "1", "2", "7", "-1", "2.5", "7.0", "0.0", "9007199254740992", "9007199254740993", "1e300",
			"'7'", "'7.0'", "'a'", "''", "'10'", "'b'", "NULL")
	}
	var conj []string
	for n := 1 + r.Intn(3); n > 0; n-- {
		switch r.Intn(10) {
		case 0, 1, 2:
			conj = append(conj, fmt.Sprintf("%s %s %s", col(), pick("=", "=", "<>", "<", "<=", ">", ">="), key()))
		case 3:
			conj = append(conj, fmt.Sprintf("%s %s %s", key(), pick("=", "<", "<=", ">", ">="), col()))
		case 4:
			conj = append(conj, fmt.Sprintf("%s %sBETWEEN %s AND %s", col(), pick("", "", "NOT "), key(), key()))
		case 5:
			conj = append(conj, fmt.Sprintf("%s %sIN (%s, %s)", col(), pick("", "NOT "), key(), key()))
		case 6:
			conj = append(conj, fmt.Sprintf("%s IS %sNULL", col(), pick("", "NOT ")))
		case 7:
			conj = append(conj, fmt.Sprintf("%s = %s", q+pick("id", "k", "s"), key()))
		case 8:
			conj = append(conj, fmt.Sprintf("%s %s %s", q+"id", pick("<", "<=", ">", ">="), key()))
		default:
			conj = append(conj, pick("s LIKE '7%'", "(id = 1 OR k = 2)", "k / 0 = 1", "zz = 1", "q.id = 1", "id + 0 = 2", "ROWNUM <= 2"))
		}
	}
	if r.Intn(20) == 0 && len(params) > 0 {
		params = params[:len(params)-1] // a parameter goes missing
	}
	return e, fmt.Sprintf("SELECT * FROM %s WHERE %s", from, strings.Join(conj, " AND ")), params
}

// sortValues sorts vs by Compare.
func sortValues(vs []Value) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && Compare(vs[j], vs[j-1]) < 0; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// checkAccessSeed runs one seed's statement on both executors and returns
// the path the engine took.
func checkAccessSeed(t *testing.T, seed int64) string {
	e, sql, params := genAccess(t, seed)
	log := recordPaths(e)
	got, gerr := e.Query(sql, params...)
	want, werr := refQuery(e, sql, params...)
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("seed %d: %s\n  sql: %s %v\n  replay: go test ./internal/sqlengine -run 'TestAccessPathGenerated/seed=%d$'",
			seed, fmt.Sprintf(format, args...), sql, params, seed)
	}
	switch {
	case (gerr == nil) != (werr == nil):
		fail("engine error %v, oracle error %v", gerr, werr)
	case gerr == nil && strings.Join(rowKeys(got.Rows), "\n") != strings.Join(rowKeys(want.Rows), "\n"):
		fail("rows\n  engine %v\n  oracle %v", got.Rows, want.Rows)
	}
	paths := log.take()
	if len(paths) != 1 {
		fail("read f %d times", len(paths))
	}
	return paths[0]
}

func TestAccessPathGenerated(t *testing.T) {
	taken := map[string]int{}
	for seed := int64(0); seed < 1500; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { taken[checkAccessSeed(t, seed)]++ })
	}
	t.Logf("paths taken: %v", taken)
	for _, p := range []string{"f:seek", "f:range", "f:scan"} {
		if taken[p] < 50 {
			t.Errorf("%s taken %d times in 1500 seeds (paths taken: %v)", p, taken[p], taken)
		}
	}
}

func FuzzAccessPath(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAccessSeed(t, seed) })
}
