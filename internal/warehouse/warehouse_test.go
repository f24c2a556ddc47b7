package warehouse

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"gridrdb/internal/netsim"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/sqlengine"
)

func buildSource(t *testing.T, cfg ntuple.Config, d *sqlengine.Dialect) *sqlengine.Engine {
	t.Helper()
	src := sqlengine.NewEngine("src_"+cfg.Name, d)
	if _, err := ntuple.NewGenerator(cfg).PopulateNormalized(src); err != nil {
		t.Fatal(err)
	}
	return src
}

func TestStagingCodecRoundTrip(t *testing.T) {
	rows := []sqlengine.Row{
		{sqlengine.NewInt(1), sqlengine.NewFloat(3.5), sqlengine.NewString("plain")},
		{sqlengine.Null(), sqlengine.NewBool(true), sqlengine.NewString("o'brien")},
		{sqlengine.NewInt(-7), sqlengine.NewFloat(1e-9), sqlengine.NewString("tab\there\nnewline")},
	}
	var buf bytes.Buffer
	for _, r := range rows {
		if _, err := encodeRow(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		got, err := decodeRow(line)
		if err != nil {
			t.Fatalf("decode line %d: %v", i, err)
		}
		if len(got) != len(rows[i]) {
			t.Fatalf("line %d: %d fields", i, len(got))
		}
		for j := range got {
			if rows[i][j].IsNull() {
				if !got[j].IsNull() {
					t.Errorf("line %d field %d: want NULL, got %v", i, j, got[j])
				}
				continue
			}
			if sqlengine.Compare(got[j], rows[i][j]) != 0 {
				t.Errorf("line %d field %d: got %v want %v", i, j, got[j], rows[i][j])
			}
		}
	}
}

// stagingRoundTrip encodes one string field and decodes it back.
func stagingRoundTrip(t *testing.T, s string) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := encodeRow(&buf, sqlengine.Row{sqlengine.NewString(s)}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSuffix(buf.String(), "\n")
	if strings.ContainsAny(line, "\n\r") {
		t.Fatalf("%q encodes over more than one line: %q", s, line)
	}
	got, err := decodeRow(line)
	if err != nil {
		t.Fatalf("%q: decode %q: %v", s, line, err)
	}
	if len(got) != 1 || got[0].Kind != sqlengine.KindString || got[0].Str() != s {
		t.Fatalf("%q: staged as %q, loads as %v", s, line, got)
	}
}

// TestStagingCodecBackslashes: a backslash in a string survives the
// staging file, also where the string spells an escape (a backslash and
// an n) or ends in one, so a mart string such as C:\new\table does not
// load with a newline and a tab in it.
func TestStagingCodecBackslashes(t *testing.T) {
	for _, s := range []string{
		`a\nb`, `\t`, `\\n`, `\r\n`, `x\`, `\`, `C:\new\table`,
		"'", "it's", "tab\there", "new\nline", "\r", "NULL", "TRUE", "1.5", "",
	} {
		stagingRoundTrip(t, s)
	}
}

// FuzzStagingRoundTrip: every string round-trips through the staging
// codec (encodeRow, then decodeRow of the line it wrote).
func FuzzStagingRoundTrip(f *testing.F) {
	for _, s := range []string{`a\nb`, `\\n`, `x\`, "'", "a\tb\nc", "NULL"} {
		f.Add(s)
	}
	f.Fuzz(stagingRoundTrip)
}

// Property: the staging codec round-trips arbitrary strings and numbers.
func TestStagingCodecProperty(t *testing.T) {
	f := func(s string, i int64, fl float64) bool {
		if fl != fl { // NaN
			return true
		}
		row := sqlengine.Row{sqlengine.NewString(s), sqlengine.NewInt(i), sqlengine.NewFloat(fl)}
		var buf bytes.Buffer
		if _, err := encodeRow(&buf, row); err != nil {
			return false
		}
		got, err := decodeRow(strings.TrimRight(buf.String(), "\n"))
		if err != nil || len(got) != 3 {
			return false
		}
		return got[0].Str() == s && got[1].Int == i && got[2].Float == fl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStage1ExtractTransformLoad(t *testing.T) {
	cfg := ntuple.Config{Name: "nt", NVar: 4, NEvents: 30, Runs: 3, Seed: 5}
	src := buildSource(t, cfg, sqlengine.DialectMySQL)
	wh := sqlengine.NewEngine("warehouse", sqlengine.DialectOracle)
	if err := InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
		t.Fatal(err)
	}
	etl := NewETL()
	res, err := etl.RunStage1(src, cfg, wh, wh.Dialect())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 30 {
		t.Fatalf("rows = %d, want 30", res.Rows)
	}
	if res.Bytes <= 0 {
		t.Fatal("no staging bytes recorded")
	}
	rs, err := wh.Query(`SELECT COUNT(*) FROM "fact_nt"`)
	if err != nil || rs.Rows[0][0].Int != 30 {
		t.Fatalf("fact count: %v %v", rs, err)
	}
	// Pivot correctness: wide values must equal the normalized values.
	want, err := src.Query("SELECT val FROM nt_values WHERE event_id = 1 AND var_idx = 2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := wh.Query(`SELECT "v2" FROM "fact_nt" WHERE "event_id" = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if sqlengine.Compare(want.Rows[0][0], got.Rows[0][0]) != 0 {
		t.Fatalf("pivot mismatch: %v vs %v", want.Rows[0][0], got.Rows[0][0])
	}
	// Dimension table populated.
	rs, err = wh.Query(`SELECT COUNT(*) FROM "dim_run"`)
	if err != nil || rs.Rows[0][0].Int != 3 {
		t.Fatalf("dim_run: %v %v", rs, err)
	}
}

func TestStage2MaterializeToMarts(t *testing.T) {
	cfg := ntuple.Config{Name: "nt", NVar: 3, NEvents: 40, Runs: 2, Seed: 11}
	src := buildSource(t, cfg, sqlengine.DialectMySQL)
	wh := sqlengine.NewEngine("warehouse", sqlengine.DialectOracle)
	if err := InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
		t.Fatal(err)
	}
	etl := NewETL()
	if _, err := etl.RunStage1(src, cfg, wh, wh.Dialect()); err != nil {
		t.Fatal(err)
	}
	views := RunViews(cfg, wh.Dialect())
	if len(views) != 2 {
		t.Fatalf("views = %d, want 2", len(views))
	}
	if err := CreateViews(wh, views); err != nil {
		t.Fatal(err)
	}
	// Materialize each run view into a different-vendor mart.
	marts := []*sqlengine.Engine{
		sqlengine.NewEngine("mart_mysql", sqlengine.DialectMySQL),
		sqlengine.NewEngine("mart_mssql", sqlengine.DialectMSSQL),
	}
	var total int64
	for i, m := range marts {
		res, err := etl.Materialize(wh, views[i].Name, cfg, m, m.Dialect(), "nt_local")
		if err != nil {
			t.Fatalf("materialize into %s: %v", m.Name(), err)
		}
		total += res.Rows
		rc, err := m.Query("SELECT COUNT(*) FROM nt_local")
		if err != nil || rc.Rows[0][0].Int != res.Rows {
			t.Fatalf("%s count: %v %v (want %d)", m.Name(), rc, err, res.Rows)
		}
	}
	// Partition completeness: the two run views cover all events.
	if total != 40 {
		t.Fatalf("materialized rows across marts = %d, want 40", total)
	}
}

func TestDirectVsStagedEquivalent(t *testing.T) {
	cfg := ntuple.Config{Name: "nt", NVar: 3, NEvents: 25, Runs: 2, Seed: 3}
	src := buildSource(t, cfg, sqlengine.DialectMySQL)

	whStaged := sqlengine.NewEngine("w1", sqlengine.DialectOracle)
	whDirect := sqlengine.NewEngine("w2", sqlengine.DialectOracle)
	for _, wh := range []*sqlengine.Engine{whStaged, whDirect} {
		if err := InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	staged := NewETL()
	if _, err := staged.RunStage1(src, cfg, whStaged, whStaged.Dialect()); err != nil {
		t.Fatal(err)
	}
	direct := &ETL{Staging: false, BatchSize: 64}
	res, err := direct.RunStage1(src, cfg, whDirect, whDirect.Dialect())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtractTime != 0 {
		t.Error("direct mode should not report a separate extract phase")
	}
	a, _ := whStaged.Query(`SELECT COUNT(*), SUM("v0") FROM "fact_nt"`)
	b, _ := whDirect.Query(`SELECT COUNT(*), SUM("v0") FROM "fact_nt"`)
	if sqlengine.Compare(a.Rows[0][0], b.Rows[0][0]) != 0 || sqlengine.Compare(a.Rows[0][1], b.Rows[0][1]) != 0 {
		t.Fatalf("staged %v vs direct %v", a.Rows[0], b.Rows[0])
	}
}

func TestETLNetsimCharging(t *testing.T) {
	cfg := ntuple.Config{Name: "nt", NVar: 2, NEvents: 10, Runs: 1, Seed: 1}
	src := buildSource(t, cfg, sqlengine.DialectMySQL)
	wh := sqlengine.NewEngine("w", sqlengine.DialectOracle)
	if err := InitWarehouse(wh, wh.Dialect(), cfg); err != nil {
		t.Fatal(err)
	}
	clock := &netsim.Clock{}
	etl := NewETL()
	etl.Profile = &netsim.Profile{Name: "t", BytesPerSecond: 1 << 20}
	etl.Clock = clock
	if _, err := etl.RunStage1(src, cfg, wh, wh.Dialect()); err != nil {
		t.Fatal(err)
	}
	if clock.Simulated() == 0 {
		t.Error("transfer cost not charged")
	}
}

func TestLoadStagedBadInput(t *testing.T) {
	wh := sqlengine.NewEngine("w", sqlengine.DialectANSI)
	if _, err := wh.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	etl := NewETL()
	if _, err := etl.LoadStaged(wh, wh.Dialect(), "t", strings.NewReader("not-a-literal-\x01'\n")); err == nil {
		t.Error("bad staging line accepted")
	}
	// Loading into a missing table fails cleanly.
	if _, err := etl.LoadStaged(wh, wh.Dialect(), "nosuch", strings.NewReader("1\n")); err == nil {
		t.Error("missing table accepted")
	}
}
