package unity

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// buildFederation assembles a two-database heterogeneous federation:
// events on a MySQL-dialect engine, runs on an MS-SQL-dialect engine, and
// a replicated lookup table on both.
func buildFederation(t *testing.T) *Federation {
	t.Helper()
	return federate(t,
		member{"tier2my", sqlengine.DialectMySQL,
			"CREATE TABLE `events` (`event_id` BIGINT PRIMARY KEY, `run` BIGINT NOT NULL, `e_tot` DOUBLE);" +
				"INSERT INTO `events` VALUES (1,100,5.5),(2,100,7.0),(3,101,2.5),(4,102,9.0);" +
				"CREATE TABLE `lookup` (`k` BIGINT, `v` VARCHAR(8));" +
				"INSERT INTO `lookup` VALUES (1,'a'),(2,'b')"},
		member{"tier2ms", sqlengine.DialectMSSQL,
			"CREATE TABLE [runs] ([run] BIGINT PRIMARY KEY, [detector] NVARCHAR(16));" +
				"INSERT INTO [runs] VALUES (100,'CMS'),(101,'ATLAS');" +
				"CREATE TABLE [lookup] ([k] BIGINT, [v] NVARCHAR(8));" +
				"INSERT INTO [lookup] VALUES (1,'a'),(2,'b')"})
}

// member is one database of a test federation: its name (also its
// local:// DSN), dialect and seed script.
type member struct {
	name    string
	dialect *sqlengine.Dialect
	script  string
}

// federate registers one engine per member and federates them.
func federate(t *testing.T, members ...member) *Federation {
	t.Helper()
	upper := &xspec.UpperSpec{Name: "fed"}
	lowers := map[string]*xspec.LowerSpec{}
	for _, m := range members {
		e := sqlengine.NewEngine(m.name, m.dialect)
		if err := e.ExecScript(m.script); err != nil {
			t.Fatal(err)
		}
		sqldriver.RegisterEngine(e)
		name := m.name
		t.Cleanup(func() { sqldriver.UnregisterEngine(name) })
		spec, err := xspec.Generate(m.name, m.dialect.Name, e)
		if err != nil {
			t.Fatal(err)
		}
		lowers[m.name] = spec
		upper.Sources = append(upper.Sources, xspec.SourceRef{Name: m.name, URL: "local://" + m.name,
			Driver: m.dialect.DriverName, XSpec: m.name + ".xspec"})
	}
	f, err := Open(upper, lowers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestSingleTablePushdown(t *testing.T) {
	f := buildFederation(t)
	plan, err := f.PlanQuery("SELECT event_id, e_tot FROM events WHERE run = 100 ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Pushdown || plan.Distributed {
		t.Fatalf("plan = %+v, want pushdown", plan)
	}
	if plan.Subs[0].Source != "tier2my" {
		t.Errorf("routed to %s", plan.Subs[0].Source)
	}
	// The pushed SQL must be in the MySQL dialect (backtick quoting).
	if !strings.Contains(plan.Subs[0].SQL, "`events`") {
		t.Errorf("pushed SQL not in mysql dialect: %s", plan.Subs[0].SQL)
	}
	rs, err := f.ExecuteContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 1 {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestCrossDatabaseJoin(t *testing.T) {
	f := buildFederation(t)
	plan, err := f.PlanQuery(`SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run WHERE r.detector = 'CMS' ORDER BY e.event_id`)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pushdown || !plan.Distributed {
		t.Fatalf("expected distributed plan, got %+v", plan)
	}
	if len(plan.Subs) != 2 {
		t.Fatalf("subs = %d, want 2", len(plan.Subs))
	}
	rs, err := f.ExecuteContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Events 1,2 are run 100 = CMS.
	if len(rs.Rows) != 2 || rs.Rows[0][1].Str() != "CMS" || rs.Rows[1][0].Int != 2 {
		t.Fatalf("join rows: %v", rs.Rows)
	}
}

func TestPredicatePushdownInSubQueries(t *testing.T) {
	f := buildFederation(t)
	plan, err := f.PlanQuery(`SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run WHERE e.e_tot > 5 AND r.detector = 'CMS'`)
	if err != nil {
		t.Fatal(err)
	}
	var evSQL, runSQL string
	for _, s := range plan.Subs {
		switch s.Table {
		case "events":
			evSQL = s.SQL
		case "runs":
			runSQL = s.SQL
		}
	}
	if !strings.Contains(evSQL, "5") {
		t.Errorf("e_tot predicate not pushed: %s", evSQL)
	}
	if !strings.Contains(runSQL, "'CMS'") {
		t.Errorf("detector predicate not pushed: %s", runSQL)
	}
	// The MS-SQL sub-query must use bracket quoting.
	if !strings.Contains(runSQL, "[runs]") {
		t.Errorf("runs sub-query not in mssql dialect: %s", runSQL)
	}
	rs, err := f.ExecuteContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestAggregateAcrossDatabases(t *testing.T) {
	f := buildFederation(t)
	rs, err := f.QueryContext(context.Background(), `SELECT r.detector, COUNT(*) AS n, AVG(e.e_tot) AS avg_e FROM events e JOIN runs r ON e.run = r.run GROUP BY r.detector ORDER BY r.detector`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("groups: %v", rs.Rows)
	}
	// ATLAS: event 3 only; CMS: events 1,2.
	if rs.Rows[0][0].Str() != "ATLAS" || rs.Rows[0][1].Int != 1 {
		t.Errorf("ATLAS row: %v", rs.Rows[0])
	}
	if rs.Rows[1][0].Str() != "CMS" || rs.Rows[1][1].Int != 2 {
		t.Errorf("CMS row: %v", rs.Rows[1])
	}
	if f2, _ := rs.Rows[1][2].AsFloat(); f2 != 6.25 {
		t.Errorf("CMS avg = %v", rs.Rows[1][2])
	}
}

func TestReplicatedTableLoadDistribution(t *testing.T) {
	f := buildFederation(t)
	// lookup exists on both databases; repeated queries must hit both
	// replicas (round-robin on equal load).
	hit := map[string]bool{}
	for i := 0; i < 8; i++ {
		plan, err := f.PlanQuery("SELECT v FROM lookup WHERE k = 1")
		if err != nil {
			t.Fatal(err)
		}
		hit[plan.Subs[0].Source] = true
		if _, err := f.ExecuteContext(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
	}
	if !hit["tier2my"] || !hit["tier2ms"] {
		t.Errorf("replicas not balanced: %v", hit)
	}
}

// TestUnknownTableError: the error names every table the federation does
// not know — joins, IN/EXISTS subqueries, each once, in first-appearance
// order — and none it does, so the data access layer can look them all up
// without parsing the query itself.
func TestUnknownTableError(t *testing.T) {
	f := buildFederation(t)
	_, err := f.PlanQuery(`SELECT a.x FROM nosuch_a a JOIN events e ON a.k = e.run
		WHERE a.k IN (SELECT k FROM nosuch_b) AND EXISTS (SELECT 1 FROM nosuch_c WHERE nosuch_c.k = 1)
		AND a.k NOT IN (SELECT k FROM nosuch_a)`)
	var ut *ErrUnknownTable
	if !errors.As(err, &ut) || !reflect.DeepEqual(ut.Tables, []string{"nosuch_a", "nosuch_b", "nosuch_c"}) {
		t.Fatalf("err = %v", err)
	}
}

func TestParamsReachExecution(t *testing.T) {
	f := buildFederation(t)
	// Single-table pushdown with params.
	rs, err := f.QueryContext(context.Background(), "SELECT event_id FROM events WHERE run = ?", sqlengine.NewInt(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("pushdown with params: %v", rs.Rows)
	}
	// Distributed with params: the param predicate stays residual.
	rs, err = f.QueryContext(context.Background(), "SELECT e.event_id FROM events e JOIN runs r ON e.run = r.run WHERE r.detector = ?", sqlengine.NewString("ATLAS"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 3 {
		t.Fatalf("distributed with params: %v", rs.Rows)
	}
}

func TestInSubqueryAcrossDatabases(t *testing.T) {
	f := buildFederation(t)
	rs, err := f.QueryContext(context.Background(), "SELECT event_id FROM events WHERE run IN (SELECT run FROM runs WHERE detector = 'CMS') ORDER BY event_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[1][0].Int != 2 {
		t.Fatalf("IN-subquery rows: %v", rs.Rows)
	}
}

func TestAddRemoveSourceAtRuntime(t *testing.T) {
	f := buildFederation(t)
	lite := sqlengine.NewEngine("laptop", sqlengine.DialectSQLite)
	if err := lite.ExecScript("CREATE TABLE calib (run INTEGER, c REAL); INSERT INTO calib VALUES (100, 0.97)"); err != nil {
		t.Fatal(err)
	}
	sqldriver.RegisterEngine(lite)
	t.Cleanup(func() { sqldriver.UnregisterEngine("laptop") })
	spec, err := xspec.Generate("laptop", "sqlite", lite)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource(xspec.SourceRef{Name: "laptop", URL: "local://laptop", Driver: "gridsql-sqlite"}, spec); err != nil {
		t.Fatal(err)
	}
	rs, err := f.QueryContext(context.Background(), "SELECT c FROM calib WHERE run = 100")
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("plugged-in table: %v %v", rs, err)
	}
	// Duplicate registration rejected.
	if err := f.AddSource(xspec.SourceRef{Name: "laptop", URL: "local://laptop", Driver: "gridsql-sqlite"}, spec); err == nil {
		t.Fatal("duplicate source accepted")
	}
	if err := f.RemoveSource("laptop"); err != nil {
		t.Fatal(err)
	}
	if len(f.Dictionary().Lookup("calib")) > 0 {
		t.Fatal("removed source still visible")
	}
	if err := f.RemoveSource("laptop"); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestSequentialModeMatchesParallel(t *testing.T) {
	f := buildFederation(t)
	q := `SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run ORDER BY e.event_id`
	par, err := f.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	f.Parallel = false
	seq, err := f.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Rows) != len(seq.Rows) {
		t.Fatalf("parallel %d rows vs sequential %d", len(par.Rows), len(seq.Rows))
	}
	for i := range par.Rows {
		for j := range par.Rows[i] {
			if sqlengine.Compare(par.Rows[i][j], seq.Rows[i][j]) != 0 {
				t.Fatalf("row %d differs", i)
			}
		}
	}
}

func TestStatsCounters(t *testing.T) {
	f := buildFederation(t)
	if _, err := f.QueryContext(context.Background(), "SELECT event_id FROM events WHERE run = 100"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.QueryContext(context.Background(), "SELECT e.event_id FROM events e JOIN runs r ON e.run = r.run"); err != nil {
		t.Fatal(err)
	}
	q, sub, push := f.Stats()
	if q != 2 || push != 1 || sub != 3 {
		t.Errorf("stats: queries=%d sub=%d push=%d", q, sub, push)
	}
}

func TestNonSelectRejected(t *testing.T) {
	f := buildFederation(t)
	if _, err := f.QueryContext(context.Background(), "DELETE FROM events"); err == nil {
		t.Fatal("DELETE accepted by federation")
	}
}

func TestLogicalNameMapping(t *testing.T) {
	// Physical names differ from logical names; the client query uses
	// logical names only (§4.4's data dictionary).
	e := sqlengine.NewEngine("legacy", sqlengine.DialectOracle)
	if err := e.ExecScript(`CREATE TABLE "EVT_T01" ("EVT_ID" NUMBER, "E_RAW" BINARY_DOUBLE); INSERT INTO "EVT_T01" VALUES (7, 3.5)`); err != nil {
		t.Fatal(err)
	}
	sqldriver.RegisterEngine(e)
	t.Cleanup(func() { sqldriver.UnregisterEngine("legacy") })
	spec := &xspec.LowerSpec{Name: "legacy", Dialect: "oracle", Tables: []xspec.TableSpec{{
		Name: "EVT_T01", Logical: "events",
		Columns: []xspec.ColumnSpec{
			{Name: "EVT_ID", Logical: "event_id", Kind: "INTEGER"},
			{Name: "E_RAW", Logical: "energy", Kind: "DOUBLE"},
		},
	}}}
	upper := &xspec.UpperSpec{Name: "fed", Sources: []xspec.SourceRef{
		{Name: "legacy", URL: "local://legacy", Driver: "gridsql-oracle"},
	}}
	f, err := Open(upper, map[string]*xspec.LowerSpec{"legacy": spec})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rs, err := f.QueryContext(context.Background(), "SELECT event_id, energy FROM events WHERE energy > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 7 {
		t.Fatalf("mapped rows: %v", rs.Rows)
	}
}

// TestOracleOrderedLimit: a top-n query on an Oracle member must answer
// with the top rows. ROWNUM cannot express a LIMIT past ORDER BY, so the
// statement is not pushed down whole; the federation sorts and limits.
func TestOracleOrderedLimit(t *testing.T) {
	f := federate(t, member{"topn_ora", sqlengine.DialectOracle,
		`CREATE TABLE t (a NUMBER); INSERT INTO t VALUES (1), (2), (3), (4), (5)`})
	rs, err := f.QueryContext(context.Background(), "SELECT a FROM t ORDER BY a DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 5 || rs.Rows[1][0].Int != 4 {
		t.Fatalf("top 2 = %v, want [5] [4]", rs.Rows)
	}
}
