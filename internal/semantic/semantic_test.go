package semantic

import (
	"context"
	"testing"
	"testing/quick"

	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

func specWith(name string, tables ...xspec.TableSpec) *xspec.LowerSpec {
	return &xspec.LowerSpec{Name: name, Dialect: "ansi", Tables: tables}
}

func cols(pairs ...string) []xspec.ColumnSpec {
	var out []xspec.ColumnSpec
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, xspec.ColumnSpec{Name: pairs[i], Kind: pairs[i+1]})
	}
	return out
}

func TestMatchRenamedTables(t *testing.T) {
	left := specWith("ora",
		xspec.TableSpec{Name: "EVENTS_T01", Columns: cols("EVT_ID", "INTEGER", "RUN_NO", "INTEGER", "E_TOT", "DOUBLE")},
		xspec.TableSpec{Name: "RUN_META", Columns: cols("RUN_NO", "INTEGER", "DETECTOR", "VARCHAR")},
	)
	right := specWith("my",
		xspec.TableSpec{Name: "tbl_events", Columns: cols("evt_id", "INTEGER", "run_no", "INTEGER", "e_tot", "DOUBLE")},
		xspec.TableSpec{Name: "runs", Columns: cols("run_no", "INTEGER", "detector", "VARCHAR")},
	)
	matches := MatchSpecs(left, right, DefaultOptions())
	if len(matches) != 2 {
		t.Fatalf("matches = %+v", matches)
	}
	byLeft := map[string]Match{}
	for _, m := range matches {
		byLeft[m.LeftTable] = m
	}
	ev, ok := byLeft["EVENTS_T01"]
	if !ok || ev.RightTable != "tbl_events" {
		t.Fatalf("events match: %+v", matches)
	}
	if ev.Columns["EVT_ID"] != "evt_id" || ev.Columns["E_TOT"] != "e_tot" {
		t.Errorf("column map: %+v", ev.Columns)
	}
	if ev.Score <= 0.5 || ev.StructScore != 1.0 {
		t.Errorf("scores: %+v", ev)
	}
	if rm, ok := byLeft["RUN_META"]; !ok || rm.RightTable != "runs" {
		t.Errorf("run match: %+v", matches)
	}
}

func TestNoSpuriousMatches(t *testing.T) {
	left := specWith("a", xspec.TableSpec{Name: "events", Columns: cols("event_id", "INTEGER", "e", "DOUBLE")})
	right := specWith("b", xspec.TableSpec{Name: "shift_log", Columns: cols("entry", "VARCHAR", "author", "VARCHAR")})
	if got := MatchSpecs(left, right, DefaultOptions()); len(got) != 0 {
		t.Fatalf("unrelated tables matched: %+v", got)
	}
}

func TestGreedyOneToOne(t *testing.T) {
	// Two near-identical right tables; each left table must match at most
	// one of them.
	left := specWith("a", xspec.TableSpec{Name: "events", Columns: cols("event_id", "INTEGER", "e", "DOUBLE")})
	right := specWith("b",
		xspec.TableSpec{Name: "events", Columns: cols("event_id", "INTEGER", "e", "DOUBLE")},
		xspec.TableSpec{Name: "events_copy", Columns: cols("event_id", "INTEGER", "e", "DOUBLE")},
	)
	matches := MatchSpecs(left, right, DefaultOptions())
	if len(matches) != 1 || matches[0].RightTable != "events" {
		t.Fatalf("greedy assignment: %+v", matches)
	}
}

func TestKindGating(t *testing.T) {
	// Same column names but incompatible kinds must not count as
	// structural overlap.
	left := specWith("a", xspec.TableSpec{Name: "t", Columns: cols("x", "VARCHAR", "y", "VARCHAR")})
	right := specWith("b", xspec.TableSpec{Name: "t", Columns: cols("x", "INTEGER", "y", "DOUBLE")})
	m := MatchSpecs(left, right, Options{Threshold: 0.01, NameWeight: 0.35})
	if len(m) == 1 && m[0].StructScore != 0 {
		t.Fatalf("kind-incompatible columns matched: %+v", m)
	}
}

func TestUnifyEndToEnd(t *testing.T) {
	// The real payoff: after Unify, the federation treats the renamed
	// tables as replicas of one logical table and a query over the
	// logical name reaches both.
	ora := sqlengine.NewEngine("sem_ora", sqlengine.DialectOracle)
	if err := ora.ExecScript(`CREATE TABLE "EVENTS_T01" ("EVT_ID" NUMBER, "E_TOT" BINARY_DOUBLE);
		INSERT INTO "EVENTS_T01" VALUES (1, 5.5)`); err != nil {
		t.Fatal(err)
	}
	my := sqlengine.NewEngine("sem_my", sqlengine.DialectMySQL)
	if err := my.ExecScript("CREATE TABLE `tbl_events` (`evt_id` BIGINT, `e_tot` DOUBLE);" +
		"INSERT INTO `tbl_events` VALUES (2, 6.5)"); err != nil {
		t.Fatal(err)
	}
	sqldriver.RegisterEngine(ora)
	sqldriver.RegisterEngine(my)
	t.Cleanup(func() {
		sqldriver.UnregisterEngine("sem_ora")
		sqldriver.UnregisterEngine("sem_my")
	})
	oraSpec, err := xspec.Generate("sem_ora", "oracle", ora)
	if err != nil {
		t.Fatal(err)
	}
	mySpec, err := xspec.Generate("sem_my", "mysql", my)
	if err != nil {
		t.Fatal(err)
	}
	matches := MatchSpecs(oraSpec, mySpec, DefaultOptions())
	if len(matches) != 1 {
		t.Fatalf("matches: %+v", matches)
	}
	assigned, err := Unify(oraSpec, mySpec, matches)
	if err != nil {
		t.Fatal(err)
	}
	// The engine normalizes table names to lower case, so the generated
	// spec's physical name is already "events_t01".
	if assigned["events_t01"] != "events_t01" {
		t.Fatalf("assigned: %v", assigned)
	}

	upper := &xspec.UpperSpec{Name: "fed", Sources: []xspec.SourceRef{
		{Name: "sem_ora", URL: "local://sem_ora", Driver: "gridsql-oracle"},
		{Name: "sem_my", URL: "local://sem_my", Driver: "gridsql-mysql"},
	}}
	f, err := unity.Open(upper, map[string]*xspec.LowerSpec{"sem_ora": oraSpec, "sem_my": mySpec})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	locs := f.Dictionary().Lookup("events_t01")
	if len(locs) != 2 {
		t.Fatalf("unified table has %d replicas, want 2", len(locs))
	}
	// Both replicas answer the same logical query (load-balanced).
	hit := map[int64]bool{}
	for i := 0; i < 12 && len(hit) < 2; i++ {
		rs, err := f.QueryContext(context.Background(), "SELECT evt_id FROM events_t01")
		if err != nil {
			t.Fatal(err)
		}
		hit[rs.Rows[0][0].Int] = true
	}
	if !hit[1] || !hit[2] {
		t.Errorf("replicas not both reachable: %v", hit)
	}
}

func TestUnifyBadMatch(t *testing.T) {
	left := specWith("a")
	right := specWith("b")
	if _, err := Unify(left, right, []Match{{LeftTable: "x", RightTable: "y"}}); err == nil {
		t.Error("unknown tables unified")
	}
}

// Property: nameSimilarity is symmetric and bounded in [0,1].
func TestNameSimilarityProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 64 || len(b) > 64 {
			return true
		}
		s1 := nameSimilarity(a, b)
		s2 := nameSimilarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Identity on non-empty names.
	if nameSimilarity("events", "events") != 1 {
		t.Error("identical names must score 1")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "ab", 2},
		{"kitten", "sitting", 3}, {"events", "events", 0},
		{"run", "runs", 1},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
