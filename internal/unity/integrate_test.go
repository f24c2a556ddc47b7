package unity

import (
	"context"
	"testing"

	"gridrdb/internal/sqlengine"
)

// loadAndQuery loads rs into a scratch engine as table t through
// loadTableFromIter — no column definitions, so kinds are inferred from
// the stream, as for a peer load — and runs q over it.
func loadAndQuery(t *testing.T, rs *sqlengine.ResultSet, q string) *sqlengine.ResultSet {
	t.Helper()
	scratch := sqlengine.NewEngine("unity-scratch", sqlengine.DialectANSI)
	if err := loadTableFromIter(context.Background(), scratch, "t", nil, sqlengine.SliceIter(rs)); err != nil {
		t.Fatal(err)
	}
	out, err := scratch.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadInferenceLateTypedColumn guards the inference rule: a column
// that is NULL for well past the first insert batch but typed later must
// still be created under its real kind. Under a (wrong) string column,
// the numeric predicate below evaluates lexically ("10" < "9") and
// silently returns the wrong rows.
func TestLoadInferenceLateTypedColumn(t *testing.T) {
	rows := make([]sqlengine.Row, 0, 320)
	for i := 0; i < 300; i++ {
		rows = append(rows, sqlengine.Row{sqlengine.Null(), sqlengine.NewInt(int64(i))})
	}
	for i := 1; i <= 20; i++ {
		rows = append(rows, sqlengine.Row{sqlengine.NewInt(int64(i + 8)), sqlengine.NewInt(int64(300 + i))})
	}
	rs := &sqlengine.ResultSet{Columns: []string{"a", "id"}, Rows: rows}

	out := loadAndQuery(t, rs, "SELECT id FROM t WHERE a > 9")
	// a takes values 9..28; a > 9 matches 19 rows. A string-typed column
	// would match none of them.
	if len(out.Rows) != 19 {
		t.Fatalf("a > 9 matched %d rows, want 19 (late-typed column stored as string?)", len(out.Rows))
	}
}

// TestLoadInferenceAllNullColumn: a column with no non-null sample in
// the entire stream falls back to string and still integrates.
func TestLoadInferenceAllNullColumn(t *testing.T) {
	rows := make([]sqlengine.Row, 0, 600)
	for i := 0; i < 600; i++ {
		rows = append(rows, sqlengine.Row{sqlengine.Null(), sqlengine.NewInt(int64(i))})
	}
	rs := &sqlengine.ResultSet{Columns: []string{"a", "id"}, Rows: rows}
	out := loadAndQuery(t, rs, "SELECT id FROM t WHERE a IS NULL")
	if len(out.Rows) != 600 {
		t.Fatalf("IS NULL matched %d rows, want 600", len(out.Rows))
	}
}

// TestLoadInferencePrefixCap guards the bounded-inference fix:
// a column whose first non-NULL sample arrives beyond inferPrefixRows
// must NOT keep buffering the stream — the column is typed string at the
// cap, so the late values come back as strings.
func TestLoadInferencePrefixCap(t *testing.T) {
	total := inferPrefixRows + 300
	rows := make([]sqlengine.Row, 0, total)
	for i := 0; i < total; i++ {
		a := sqlengine.Null()
		if i >= inferPrefixRows+100 {
			a = sqlengine.NewInt(int64(i))
		}
		rows = append(rows, sqlengine.Row{a, sqlengine.NewInt(int64(i))})
	}
	rs := &sqlengine.ResultSet{Columns: []string{"a", "id"}, Rows: rows}
	out := loadAndQuery(t, rs, "SELECT a FROM t WHERE a IS NOT NULL")
	if len(out.Rows) != 200 {
		t.Fatalf("got %d non-null rows, want 200", len(out.Rows))
	}
	// String kind proves inference stopped at the cap instead of
	// buffering on until the first sample at inferPrefixRows+100.
	if k := out.Rows[0][0].Kind; k != sqlengine.KindString {
		t.Fatalf("late-sampled column kind = %v, want string (prefix cap not applied?)", k)
	}
}
