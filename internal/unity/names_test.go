package unity

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// namesFederation is a federation whose Oracle member holds events
// (id → EVT_ID, energy → E_RAW) and runs (id → RUN_ID, energy → RUN_E):
// two tables that share their logical column names under different
// physical ones. A MySQL member holds tags, whose names are physical.
// The returned engine holds all three tables under their logical names.
func namesFederation(t *testing.T) (*Federation, *sqlengine.Engine) {
	t.Helper()
	ora := sqlengine.NewEngine("names_ora", sqlengine.DialectOracle)
	if err := ora.ExecScript(`CREATE TABLE "EVT_T01" ("EVT_ID" NUMBER, "E_RAW" BINARY_DOUBLE);
		INSERT INTO "EVT_T01" VALUES (1, 3.5), (2, 1.5);
		CREATE TABLE "RUN_T" ("RUN_ID" NUMBER, "RUN_E" BINARY_DOUBLE);
		INSERT INTO "RUN_T" VALUES (7, 2.0)`); err != nil {
		t.Fatal(err)
	}
	my := sqlengine.NewEngine("names_my", sqlengine.DialectMySQL)
	if err := my.ExecScript("CREATE TABLE `tags` (`id` BIGINT, `label` VARCHAR(8)); INSERT INTO `tags` VALUES (1, 'hot'), (7, 'cold')"); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*sqlengine.Engine{ora, my} {
		sqldriver.RegisterEngine(e)
	}
	t.Cleanup(func() {
		sqldriver.UnregisterEngine("names_ora")
		sqldriver.UnregisterEngine("names_my")
	})
	table := func(name, logical string, cols ...string) xspec.TableSpec {
		ts := xspec.TableSpec{Name: name, Logical: logical}
		for i := 0; i < len(cols); i += 2 {
			ts.Columns = append(ts.Columns, xspec.ColumnSpec{Name: cols[i], Logical: cols[i+1]})
		}
		return ts
	}
	lowers := map[string]*xspec.LowerSpec{
		"names_ora": {Name: "names_ora", Dialect: "oracle", Tables: []xspec.TableSpec{
			table("EVT_T01", "events", "EVT_ID", "id", "E_RAW", "energy"),
			table("RUN_T", "runs", "RUN_ID", "id", "RUN_E", "energy"),
		}},
		"names_my": {Name: "names_my", Dialect: "mysql", Tables: []xspec.TableSpec{
			table("tags", "tags", "id", "id", "label", "label"),
		}},
	}
	upper := &xspec.UpperSpec{Name: "names", Sources: []xspec.SourceRef{
		{Name: "names_ora", URL: "local://names_ora", Driver: "gridsql-oracle"},
		{Name: "names_my", URL: "local://names_my", Driver: "gridsql-mysql"},
	}}
	f, err := Open(upper, lowers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ref := sqlengine.NewEngine("names_ref", sqlengine.DialectANSI)
	if err := ref.ExecScript(`CREATE TABLE events (id INTEGER, energy DOUBLE); INSERT INTO events VALUES (1, 3.5), (2, 1.5);
		CREATE TABLE runs (id INTEGER, energy DOUBLE); INSERT INTO runs VALUES (7, 2.0);
		CREATE TABLE tags (id INTEGER, label VARCHAR(8)); INSERT INTO tags VALUES (1, 'hot'), (7, 'cold')`); err != nil {
		t.Fatal(err)
	}
	return f, ref
}

// TestNameResolution: a member holding two tables that share a logical
// column name under different physical names answers every statement as
// one engine holding them under their logical names does — the same
// header and rows, or the same ambiguity error — on every run, and renders
// one RAL WHERE and one load sub-query. A bare name is rendered only when
// the statement's tables agree on its physical name; otherwise the
// statement runs on the operators, which resolve scope as one engine
// does. An answer the member serves whole is headed by logical names (a
// renamed column rendered AS its logical name, a star over renamed
// columns listed in join order), and so is a POOL-RAL answer.
func TestNameResolution(t *testing.T) {
	f, ref := namesFederation(t)
	const runs = 50
	for _, sql := range []string{
		"SELECT id, energy FROM events WHERE energy > 1",
		"SELECT id FROM events, runs",
		"SELECT e.id FROM events e WHERE EXISTS (SELECT 1 FROM runs r WHERE r.energy < energy)",
		"SELECT e.id, t.label FROM events e JOIN tags t ON e.id = t.id",
		"SELECT events.id FROM events WHERE events.energy > 1",
		// ORDER BY names the output alias, not the stored energy: ids
		// 1, 2 by the alias, 2, 1 by energy.
		"SELECT id AS energy FROM events ORDER BY energy",
		"SELECT id AS energy, energy AS id FROM events ORDER BY id DESC",
		"SELECT * FROM events",
		"SELECT e.* FROM events e",
		"SELECT *, id FROM events",
		"SELECT e.id, r.energy FROM events e, runs r",
		"SELECT * FROM events e JOIN runs r ON e.id < r.id",
		"SELECT r.*, e.id FROM events e JOIN runs r ON e.id < r.id",
		"SELECT * FROM events e, runs r JOIN events e2 ON e.id < e2.id",
		"SELECT id FROM events ORDER BY energy DESC",
		// The stored energy is E_RAW, the name the answer's one column
		// goes by: ordered at the member, ids would come 1, 2.
		"SELECT id AS e_raw FROM events ORDER BY energy",
		"SELECT * FROM tags",
	} {
		want, werr := ref.Query(sql)
		// rows lists a result's rows, in order under an ORDER BY.
		rows := rowStrings
		if strings.Contains(sql, "ORDER BY") {
			rows = func(rs []sqlengine.Row) []string { return []string{fmt.Sprint(rs)} }
		}
		bad := 0
		var last string
		for i := 0; i < runs; i++ {
			got, err := f.QueryContext(context.Background(), sql)
			switch {
			case werr != nil && (err == nil || !strings.Contains(err.Error(), "ambiguous")):
				bad++
				last = "federation error " + errString(err) + ", one engine's " + werr.Error()
			case werr == nil && err != nil:
				bad++
				last = "federation error " + err.Error()
			case werr == nil && !reflect.DeepEqual(got.Columns, want.Columns):
				bad++
				last = "headed " + strings.Join(got.Columns, ",") + ", one engine " + strings.Join(want.Columns, ",")
			case werr == nil && !reflect.DeepEqual(rows(got.Rows), rows(want.Rows)):
				bad++
				last = "rows " + strings.Join(rows(got.Rows), ";") + ", one engine's " + strings.Join(rows(want.Rows), ";")
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d/%d runs differ from one engine; the last: %s", sql, bad, runs, last)
		}
	}

	// One rendering per statement: the RAL WHERE resolves the qualifier
	// and names the physical column bare, and the events load of a join
	// with another member selects events' own column.
	distinct := func(render func() string) map[string]int {
		seen := map[string]int{}
		for i := 0; i < runs; i++ {
			seen[render()]++
		}
		return seen
	}
	where := distinct(func() string {
		parts, ok, err := f.ExtractRALParts("SELECT e.id FROM events e WHERE e.energy > 1")
		if err != nil || !ok {
			return "unfit: " + errString(err)
		}
		return parts.Where
	})
	if len(where) != 1 || where[`("E_RAW" > 1)`] != runs {
		t.Errorf(`RAL WHERE renderings %v, want ("E_RAW" > 1) on every run`, where)
	}
	for _, c := range []struct {
		sql            string
		fields, labels []string
	}{
		{"SELECT id FROM events WHERE energy > 1", []string{"EVT_ID"}, []string{"id"}},
		{"SELECT *, energy FROM events", []string{"EVT_ID", "E_RAW", "E_RAW"}, []string{"id", "energy", "energy"}},
		{"SELECT * FROM tags", []string{"*"}, nil},
		{"SELECT label FROM tags", []string{"label"}, nil},
	} {
		parts, ok, err := f.ExtractRALParts(c.sql)
		if err != nil || !ok {
			t.Fatalf("%s: unfit for the RAL (%v)", c.sql, err)
		}
		if !reflect.DeepEqual(parts.Fields, c.fields) || !reflect.DeepEqual(parts.Labels, c.labels) {
			t.Errorf("%s: RAL fields %q labels %q, want %q and %q", c.sql, parts.Fields, parts.Labels, c.fields, c.labels)
		}
	}
	load := distinct(func() string {
		plan, err := f.PlanQuery("SELECT e.id, t.label FROM events e JOIN tags t ON e.id = t.id")
		if err != nil {
			return "error: " + err.Error()
		}
		for _, s := range plan.Subs {
			if s.Table == "events" {
				return s.SQL
			}
		}
		return "no events load"
	})
	if len(load) != 1 || load[`SELECT "EVT_ID" FROM "EVT_T01" "e"`] != runs {
		t.Errorf(`events load renderings %v, want SELECT "EVT_ID" FROM "EVT_T01" "e" on every run`, load)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
