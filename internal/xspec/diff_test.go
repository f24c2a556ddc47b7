package xspec

import (
	"sort"
	"testing"
)

func twoTableSpec() *LowerSpec {
	return &LowerSpec{
		Name:    "db1",
		Dialect: "mysql",
		Tables: []TableSpec{
			{Name: "EVENTS", Logical: "events", Rows: 10, Columns: []ColumnSpec{
				{Name: "id", Logical: "id", Kind: "INTEGER", Key: "PRI"},
			}},
			{Name: "RUNS", Logical: "runs", Rows: 3, Columns: []ColumnSpec{
				{Name: "run", Logical: "run", Kind: "INTEGER", Key: "PRI"},
			}},
		},
	}
}

func sorted(ss []string) []string { sort.Strings(ss); return ss }

func TestDiffSpecsNoChange(t *testing.T) {
	d := DiffSpecs(twoTableSpec(), twoTableSpec())
	if len(d.Tables) != 0 {
		t.Fatalf("diff of identical specs = %+v", d)
	}
}

func TestDiffSpecsFlagsOnlyChangedTables(t *testing.T) {
	old, new := twoTableSpec(), twoTableSpec()
	new.Tables[0].Rows = 11 // data changed in events only
	d := DiffSpecs(old, new)
	if len(d.Tables) != 1 || d.Tables[0] != "events" {
		t.Fatalf("diff.Tables = %v, want [events]", d.Tables)
	}

	old, new = twoTableSpec(), twoTableSpec()
	new.Tables[1].Columns = append(new.Tables[1].Columns, ColumnSpec{Name: "site", Logical: "site", Kind: "STRING"})
	d = DiffSpecs(old, new)
	if len(d.Tables) != 1 || d.Tables[0] != "runs" {
		t.Fatalf("column add: diff.Tables = %v, want [runs]", d.Tables)
	}
}

func TestDiffSpecsAddedAndRemoved(t *testing.T) {
	old, new := twoTableSpec(), twoTableSpec()
	new.Tables = append(new.Tables, TableSpec{Name: "extra", Logical: "extra"})
	d := DiffSpecs(old, new)
	if len(d.Tables) != 1 || d.Tables[0] != "extra" {
		t.Fatalf("added table: diff.Tables = %v", d.Tables)
	}

	d = DiffSpecs(new, old) // removal is the mirror image
	if len(d.Tables) != 1 || d.Tables[0] != "extra" {
		t.Fatalf("removed table: diff.Tables = %v", d.Tables)
	}

	// Rename shows up as remove + add.
	renamed := twoTableSpec()
	renamed.Tables[1].Logical = "runsinfo"
	d = DiffSpecs(old, renamed)
	if got := sorted(d.Tables); len(got) != 2 || got[0] != "runs" || got[1] != "runsinfo" {
		t.Fatalf("rename: diff.Tables = %v, want [runs runsinfo]", d.Tables)
	}
}

// TestDiffSpecsRelationships: a relationship appears when a table gains
// the column that references another's primary key, and the diff names
// that table, the one whose cached results it can change.
func TestDiffSpecsRelationships(t *testing.T) {
	old, new := twoTableSpec(), twoTableSpec()
	new.Tables[0].Columns = append(new.Tables[0].Columns, ColumnSpec{Name: "run", Logical: "run", Kind: "INTEGER"})
	if InferRelationships(new) != 1 {
		t.Fatalf("relationships = %+v, want events.run -> runs.run", new.Relationships)
	}
	d := DiffSpecs(old, new)
	if len(d.Tables) != 1 || d.Tables[0] != "events" {
		t.Fatalf("diff.Tables = %v, want [events]", d.Tables)
	}
}

func TestDiffSpecsNilOld(t *testing.T) {
	d := DiffSpecs(nil, twoTableSpec())
	if got := sorted(d.Tables); len(got) != 2 || got[0] != "events" || got[1] != "runs" {
		t.Fatalf("nil old: diff.Tables = %v", d.Tables)
	}
}
