package xspec

import (
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
