package xspec

import (
	"fmt"
	"strings"
	"testing"

	"gridrdb/internal/sqlengine"
)

func relSpec(t *testing.T) *LowerSpec {
	t.Helper()
	e := sqlengine.NewEngine("reldb", sqlengine.DialectMySQL)
	err := e.ExecScript(
		"CREATE TABLE `runs` (`run` BIGINT PRIMARY KEY, `detector` VARCHAR(16));" +
			"CREATE TABLE `events` (`event_id` BIGINT PRIMARY KEY, `run` BIGINT, `e_tot` DOUBLE);" +
			"CREATE TABLE `calib` (`calib_id` BIGINT PRIMARY KEY, `run` BIGINT, `gain` DOUBLE);" +
			"CREATE TABLE `standalone` (`x` BIGINT)")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Generate("reldb", "mysql", e)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestInferRelationships(t *testing.T) {
	// Generate already infers relationships (§4.4); verify the result.
	spec := relSpec(t)
	if len(spec.Relationships) != 2 {
		t.Fatalf("generated relationships = %+v, want 2 (events.run->runs.run, calib.run->runs.run)", spec.Relationships)
	}
	want := map[string]string{
		"events.run": "runs.run",
		"calib.run":  "runs.run",
	}
	for _, r := range spec.Relationships {
		if want[r.From] != r.To {
			t.Errorf("unexpected relationship %s -> %s", r.From, r.To)
		}
	}
	// Idempotent.
	if again := InferRelationships(spec); again != 0 {
		t.Fatalf("second inference added %d", again)
	}
}

func TestRelationshipsSurviveXMLRoundTrip(t *testing.T) {
	spec := relSpec(t)
	InferRelationships(spec)
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<relationship") {
		t.Fatalf("relationships not marshaled:\n%s", data)
	}
	back, err := ParseLower(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Relationships) != 2 {
		t.Fatalf("round trip lost relationships: %+v", back.Relationships)
	}
}

func TestJoinHints(t *testing.T) {
	spec := relSpec(t)
	InferRelationships(spec)
	hints := spec.JoinHints("events", "runs")
	if len(hints) != 1 {
		t.Fatalf("hints = %+v", hints)
	}
	if got := hints[0].SQLJoinCondition(); got != "events.run = runs.run" {
		t.Errorf("condition = %q", got)
	}
	// Reverse direction gives the same normalized hint.
	rev := spec.JoinHints("runs", "events")
	if len(rev) != 1 || rev[0].SQLJoinCondition() != "runs.run = events.run" {
		t.Errorf("reverse hints = %+v", rev)
	}
	if h := spec.JoinHints("events", "standalone"); len(h) != 0 {
		t.Errorf("phantom hints = %+v", h)
	}
	// The hint produces a working federated join condition.
	e := sqlengine.NewEngine("hintexec", sqlengine.DialectMySQL)
	if err := e.ExecScript(
		"CREATE TABLE `runs` (`run` BIGINT PRIMARY KEY, `detector` VARCHAR(16));" +
			"INSERT INTO `runs` VALUES (100, 'CMS');" +
			"CREATE TABLE `events` (`event_id` BIGINT PRIMARY KEY, `run` BIGINT, `e_tot` DOUBLE);" +
			"INSERT INTO `events` VALUES (1, 100, 5.0)"); err != nil {
		t.Fatal(err)
	}
	rs, err := e.Query("SELECT events.event_id FROM events JOIN runs ON " + hints[0].SQLJoinCondition())
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("hinted join: %v %v", rs, err)
	}
}

func TestSplitRef(t *testing.T) {
	if tbl, col, ok := splitRef("events.run"); !ok || tbl != "events" || col != "run" {
		t.Errorf("splitRef: %s %s %v", tbl, col, ok)
	}
	for _, bad := range []string{"", "noDot", ".col", "table."} {
		if _, _, ok := splitRef(bad); ok {
			t.Errorf("splitRef(%q) accepted", bad)
		}
	}
}

// SQLJoinCondition renders a hint as an SQL ON condition over logical
// names.
func (h JoinHint) SQLJoinCondition() string {
	return fmt.Sprintf("%s.%s = %s.%s", h.LeftTable, h.LeftColumn, h.RightTable, h.RightColumn)
}
