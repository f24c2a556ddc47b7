package xspec

import (
	"encoding/xml"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gridrdb/internal/sqlengine"
)

func sampleEngine(t *testing.T) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine("tier2db", sqlengine.DialectMySQL)
	err := e.ExecScript("CREATE TABLE events (event_id BIGINT PRIMARY KEY, run BIGINT NOT NULL, e_tot DOUBLE);" +
		"CREATE TABLE runs (run BIGINT PRIMARY KEY, detector VARCHAR(16));" +
		"INSERT INTO events VALUES (1, 100, 5.0), (2, 101, 6.0);" +
		"INSERT INTO runs VALUES (100, 'CMS');" +
		"CREATE VIEW recent AS SELECT event_id FROM events WHERE run > 100")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGenerate(t *testing.T) {
	e := sampleEngine(t)
	spec, err := Generate("tier2db", "mysql", e)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "tier2db" || spec.Dialect != "mysql" {
		t.Errorf("identity: %+v", spec)
	}
	if len(spec.Tables) != 3 {
		t.Fatalf("tables = %d, want 3 (2 tables + 1 view)", len(spec.Tables))
	}
	var events *TableSpec
	for i := range spec.Tables {
		if spec.Tables[i].Name == "events" {
			events = &spec.Tables[i]
		}
		if spec.Tables[i].Name == "recent" && !spec.Tables[i].View {
			t.Error("view not flagged")
		}
	}
	if events == nil {
		t.Fatal("events table missing")
	}
	if events.Rows != 2 {
		t.Errorf("row count = %d, want 2", events.Rows)
	}
	if len(events.Columns) != 3 {
		t.Fatalf("columns = %d", len(events.Columns))
	}
	if events.Columns[0].Key != "PRI" || events.Columns[0].Nullable {
		t.Errorf("pk column: %+v", events.Columns[0])
	}
	if events.Columns[2].Kind != "DOUBLE" {
		t.Errorf("e_tot kind = %q", events.Columns[2].Kind)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	e := sampleEngine(t)
	spec, err := Generate("tier2db", "mysql", e)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<database") {
		t.Fatalf("unexpected XML:\n%s", data)
	}
	back, err := ParseLower(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name || len(back.Tables) != len(spec.Tables) {
		t.Errorf("round trip lost data: %+v", back)
	}
	data2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("marshal not canonical")
	}
}

func TestUpperSpec(t *testing.T) {
	u := &UpperSpec{
		Name: "lhc-federation",
		Sources: []SourceRef{
			{Name: "tier1ora", URL: "tcp://cern:9001/tier1ora", Driver: "gridsql-oracle", XSpec: "tier1ora.xspec"},
			{Name: "tier2my", URL: "tcp://caltech:9002/tier2my", Driver: "gridsql-mysql", XSpec: "tier2my.xspec"},
		},
	}
	data, err := u.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseUpper(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sources) != 2 || back.Sources[1].Driver != "gridsql-mysql" {
		t.Errorf("round trip: %+v", back)
	}
	if _, err := ParseUpper([]byte("<not-xml")); err == nil {
		t.Error("bad xml accepted")
	}
}

func TestFingerprint(t *testing.T) {
	a := FingerprintOf([]byte("hello"))
	b := FingerprintOf([]byte("hello"))
	c := FingerprintOf([]byte("hellx"))     // same size, different bytes
	d := FingerprintOf([]byte("different")) // different size
	if !a.Equal(b) {
		t.Error("identical data mismatch")
	}
	if a.Equal(c) {
		t.Error("md5 collision on different bytes?")
	}
	if a.Equal(d) {
		t.Error("size check failed")
	}
	if a.String() == "" {
		t.Error("empty string form")
	}
}

func TestFingerprintDetectsSchemaChange(t *testing.T) {
	e := sampleEngine(t)
	spec1, _ := Generate("tier2db", "mysql", e)
	data1, _ := spec1.Marshal()
	fp1 := FingerprintOf(data1)
	// Schema change: add a column (§4.9's trigger condition).
	if _, err := e.Exec("ALTER TABLE events ADD COLUMN phi DOUBLE"); err != nil {
		t.Fatal(err)
	}
	spec2, _ := Generate("tier2db", "mysql", e)
	data2, _ := spec2.Marshal()
	if FingerprintOf(data2).Equal(fp1) {
		t.Error("schema change not detected by fingerprint")
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.xspec")
	if err := WriteFile(path, []byte("<database/>")); err != nil {
		t.Fatal(err)
	}
	data, err := ReadFile(path)
	if err != nil || string(data) != "<database/>" {
		t.Fatalf("read back: %q %v", data, err)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file read")
	}
}

func TestDictionary(t *testing.T) {
	s1 := &LowerSpec{Name: "db1", Dialect: "mysql", Tables: []TableSpec{
		{Name: "EVENTS_T1", Logical: "events", Columns: []ColumnSpec{
			{Name: "EVT_ID", Logical: "event_id", Kind: "INTEGER"},
		}},
	}}
	s2 := &LowerSpec{Name: "db2", Dialect: "mssql", Tables: []TableSpec{
		{Name: "events", Logical: "events", Columns: []ColumnSpec{
			{Name: "event_id", Logical: "event_id", Kind: "INTEGER"},
		}},
		{Name: "runs", Logical: "runs"},
	}}
	d := BuildDictionary(s1, s2)
	locs := d.Lookup("events")
	if len(locs) != 2 {
		t.Fatalf("events placements = %d, want 2", len(locs))
	}
	// Logical-to-physical mapping: clients never see EVT_ID.
	if locs[0].Database != "db1" || locs[0].Table != "EVENTS_T1" {
		t.Errorf("loc0 = %+v", locs[0])
	}
	if locs[0].ColByLogical["event_id"] != "EVT_ID" {
		t.Errorf("column mapping: %+v", locs[0].ColByLogical)
	}
	if got := d.LogicalTables(); len(got) != 2 || got[0] != "events" || got[1] != "runs" {
		t.Errorf("logical tables: %v", got)
	}
	if d.Lookup("nosuch") != nil {
		t.Error("unknown lookup should be nil")
	}
}

// ParseUpper parses an upper-level spec document.
func ParseUpper(data []byte) (*UpperSpec, error) {
	var u UpperSpec
	if err := xml.Unmarshal(data, &u); err != nil {
		return nil, fmt.Errorf("xspec: parse upper spec: %w", err)
	}
	return &u, nil
}

// Marshal renders the upper-level spec as XML.
func (u *UpperSpec) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(u, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}
