package sqlengine

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	e := NewEngine("litedb", DialectSQLite)
	mustExec(t, e, `CREATE TABLE ev (id INTEGER PRIMARY KEY, e REAL, tag TEXT NOT NULL, note TEXT DEFAULT 'n/a')`)
	mustExec(t, e, `CREATE INDEX idx_tag ON ev (tag)`)
	mustExec(t, e, `INSERT INTO ev (id, e, tag) VALUES (1, 1.5, 'a'), (2, NULL, 'b')`)
	mustExec(t, e, `CREATE VIEW v AS SELECT id FROM ev WHERE e IS NOT NULL`)

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Name() != "litedb" || e2.Dialect().Name != "sqlite" {
		t.Errorf("identity lost: %s %s", e2.Name(), e2.Dialect().Name)
	}
	rs := mustQuery(t, e2, `SELECT id, e, tag, note FROM ev ORDER BY id`)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows lost: %d", len(rs.Rows))
	}
	if rs.Rows[0][3].Str() != "n/a" {
		t.Errorf("default value lost: %v", rs.Rows[0][3])
	}
	if !rs.Rows[1][1].IsNull() {
		t.Errorf("NULL lost: %v", rs.Rows[1][1])
	}
	// Default expr must still apply post-load.
	mustExec(t, e2, `INSERT INTO ev (id, e, tag) VALUES (3, 2.5, 'c')`)
	rs = mustQuery(t, e2, `SELECT note FROM ev WHERE id = 3`)
	if rs.Rows[0][0].Str() != "n/a" {
		t.Errorf("reloaded default not applied: %v", rs.Rows[0][0])
	}
	// View survives.
	rs = mustQuery(t, e2, `SELECT * FROM v`)
	if len(rs.Rows) != 2 {
		t.Errorf("view rows = %d, want 2", len(rs.Rows))
	}
	// Unique index survives: duplicate PK must be rejected.
	if _, err := e2.Exec(`INSERT INTO ev (id, e, tag) VALUES (1, 0, 'dup')`); err == nil {
		t.Error("PK constraint lost after reload")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.gridsql")
	e := NewEngine("filedb", DialectSQLite)
	mustExec(t, e, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, e, `INSERT INTO t VALUES (42)`)
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, e2, `SELECT a FROM t`)
	if rs.Rows[0][0].Int != 42 {
		t.Errorf("got %v", rs.Rows[0][0])
	}
	if _, err := LoadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestLoadRefusesDuplicateKeys: a snapshot whose rows break a unique
// index (as one saved after a failed UPDATE of a key could, before a
// failing statement changed nothing) fails to load, naming the table and
// the index, instead of loading keys a seek would miss.
func TestLoadRefusesDuplicateKeys(t *testing.T) {
	key := func(n int64) []persistValue { return []persistValue{{Kind: KindInt, Int: n}} }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&persistDB{Name: "dups", Dialect: "ansi", Tables: []persistTable{{
		Name:       "t",
		Columns:    []persistColumn{{Name: "id", Kind: KindInt, NotNull: true, PrimaryKey: true}},
		PrimaryKey: []string{"id"},
		Indexes:    []persistIndex{{Name: "pk_t", Columns: []string{"id"}, Unique: true}},
		Rows:       [][]persistValue{key(1), key(2), key(1)},
	}}}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil || !strings.Contains(err.Error(), `"pk_t"`) || !strings.Contains(err.Error(), `table "t"`) {
		t.Errorf("Load of duplicate keys: %v, want an error naming pk_t and t", err)
	}
}
