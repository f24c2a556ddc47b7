package xspec

// TableDiff reports what changed between two generations of a database's
// lower-level spec, at table granularity. The schema-change tracker uses
// it to evict only the cache entries that read the changed tables instead
// of cold-starting every entry of the source.
type TableDiff struct {
	// Tables are the logical names of tables that were added, removed, or
	// whose spec (columns, keys, view-ness, row count) changed. An
	// inferred relationship links a column of one table to the primary
	// key of another, so it changes only when one of those tables does:
	// Tables covers relationship changes too.
	Tables []string
}

// tableEqual compares two table specs field by field.
func tableEqual(a, b TableSpec) bool {
	if a.Name != b.Name || a.Logical != b.Logical || a.View != b.View || a.Rows != b.Rows {
		return false
	}
	if len(a.Columns) != len(b.Columns) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	return true
}

// DiffSpecs compares two generations of a lower spec and returns the
// table-granular change set. Both arguments must describe the same
// database; a nil old spec marks every table of the new spec changed.
func DiffSpecs(old, new *LowerSpec) TableDiff {
	var d TableDiff
	if old == nil {
		for _, t := range new.Tables {
			d.Tables = append(d.Tables, LogicalName(t.Logical, t.Name))
		}
		return d
	}
	oldByName := make(map[string]TableSpec, len(old.Tables))
	for _, t := range old.Tables {
		oldByName[LogicalName(t.Logical, t.Name)] = t
	}
	seen := make(map[string]bool, len(new.Tables))
	for _, t := range new.Tables {
		name := LogicalName(t.Logical, t.Name)
		seen[name] = true
		prev, ok := oldByName[name]
		if !ok || !tableEqual(prev, t) {
			d.Tables = append(d.Tables, name)
		}
	}
	for name := range oldByName {
		if !seen[name] {
			d.Tables = append(d.Tables, name)
		}
	}
	return d
}
