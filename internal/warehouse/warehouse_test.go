package warehouse

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

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

// captureTarget is a bulk-load target that keeps the rows it is given.
type captureTarget struct{ rows []sqlengine.Row }

func (c *captureTarget) Exec(string, ...sqlengine.Value) (int64, error) { return 0, nil }

func (c *captureTarget) InsertRows(_ string, rows []sqlengine.Row) (int64, error) {
	c.rows = append(c.rows, rows...)
	return int64(len(rows)), nil
}

// stagingRoundTrip writes rows to a staging file and loads it back, and
// fails unless every value comes back exactly: its kind, float bits, time
// to the nanosecond, and string vs bytes.
func stagingRoundTrip(t *testing.T, rows []sqlengine.Row) {
	t.Helper()
	etl := NewETL()
	staged := stageRows(t, rows)
	size := int64(staged.Len())
	var got captureTarget
	n, err := etl.LoadStaged(&got, sqlengine.DialectANSI, "t", staged)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(rows)) || len(got.rows) != len(rows) {
		t.Fatalf("loaded %d rows (%d kept), want %d", n, len(got.rows), len(rows))
	}
	for i, row := range rows {
		if len(got.rows[i]) != len(row) {
			t.Fatalf("row %d: %d values, want %d", i, len(got.rows[i]), len(row))
		}
		for j, want := range row {
			if g := got.rows[i][j]; !sameValue(g, want) {
				t.Fatalf("row %d value %d: staged %#v, loads as %#v (%d staged bytes)", i, j, want, g, size)
			}
		}
	}
}

// sameValue reports whether a and b are the same value, bit for bit.
func sameValue(a, b sqlengine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqlengine.KindInt:
		return a.Int == b.Int
	case sqlengine.KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case sqlengine.KindTime:
		return a.Time().Equal(b.Time()) && a.Time().Nanosecond() == b.Time().Nanosecond()
	case sqlengine.KindBool:
		return a.Bool() == b.Bool()
	}
	return a.Str() == b.Str()
}

// everyKind is a row with one value of each kind.
func everyKind(s string, b []byte, i int64, fbits uint64, sec int64, nsec uint32, flag bool) sqlengine.Row {
	ts := time.Unix(sec%(1<<34), int64(nsec%1e9)).UTC()
	return sqlengine.Row{
		sqlengine.Null(), sqlengine.NewInt(i), sqlengine.NewFloat(math.Float64frombits(fbits)),
		sqlengine.NewString(s), sqlengine.NewBytes(b), sqlengine.NewBool(flag), sqlengine.NewTime(ts),
	}
}

func TestStagingCodecRoundTrip(t *testing.T) {
	stagingRoundTrip(t, []sqlengine.Row{
		{sqlengine.NewInt(1), sqlengine.NewFloat(3.5), sqlengine.NewString("plain")},
		{sqlengine.Null(), sqlengine.NewBool(true), sqlengine.NewString("o'brien")},
		{sqlengine.NewInt(-7), sqlengine.NewFloat(1e-9), sqlengine.NewString("tab\there\nnewline")},
		{},
		everyKind("", nil, math.MinInt64, math.Float64bits(math.Copysign(0, -1)), -62135596800, 0, false),
		everyKind("x\x00y", []byte{}, 1<<53+1, math.Float64bits(math.NaN()), 253402300799, 999999999, true),
		everyKind("NULL", []byte("NULL"), math.MaxInt64, math.Float64bits(math.Inf(-1)), 1e9, 123456789, true),
	})
}

// TestStagingCodecBackslashes: the strings a text staging line had to
// escape — backslashes, escape spellings, quotes, tabs, newlines — and
// the ones it spelled like another value load as themselves.
func TestStagingCodecBackslashes(t *testing.T) {
	var rows []sqlengine.Row
	for _, s := range []string{
		`a\nb`, `\t`, `\\n`, `\r\n`, `x\`, `\`, `C:\new\table`,
		"'", "it's", "tab\there", "new\nline", "\r", "NULL", "TRUE", "1.5", "",
	} {
		rows = append(rows, sqlengine.Row{sqlengine.NewString(s)})
	}
	stagingRoundTrip(t, rows)
}

// FuzzStagingRoundTrip: a row of every kind loads from the staging file
// exactly as it was extracted.
func FuzzStagingRoundTrip(f *testing.F) {
	f.Add(`a\nb`, []byte{0}, int64(0), uint64(0), int64(0), uint32(0), false)
	f.Add(`\\n`, []byte(nil), int64(-1), math.Float64bits(math.Copysign(0, -1)), int64(-1), uint32(1), true)
	f.Add(`x\`, []byte("x\x00"), int64(math.MinInt64), math.Float64bits(math.NaN()), int64(1e9), uint32(999999999), true)
	f.Add("'", []byte("'"), int64(1<<53+1), math.Float64bits(math.Inf(1)), int64(-62135596800), uint32(5e8), false)
	f.Add("a\tb\nc", []byte("a\tb"), int64(math.MaxInt64), math.Float64bits(0.1), int64(253402300799), uint32(7), true)
	f.Add("NULL", []byte("NULL"), int64(7), math.Float64bits(1e300), int64(1<<40), uint32(1e9), false)
	f.Fuzz(func(t *testing.T, s string, b []byte, i int64, fbits uint64, sec int64, nsec uint32, flag bool) {
		stagingRoundTrip(t, []sqlengine.Row{everyKind(s, b, i, fbits, sec, nsec, flag)})
	})
}

// Property: the staging codec round-trips arbitrary rows of every kind.
func TestStagingCodecProperty(t *testing.T) {
	f := func(s string, b []byte, i int64, fbits uint64, sec int64, nsec uint32, flag bool) bool {
		stagingRoundTrip(t, []sqlengine.Row{everyKind(s, b, i, fbits, sec, nsec, flag)})
		return true
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
	// Text, a garbled record, a record cut short and an absurd length are
	// all refused.
	record := stageRows(t, []sqlengine.Row{{sqlengine.NewInt(1)}}).Bytes()
	// The last claims a record of 2^63 - 1 bytes.
	for _, bad := range []string{"not-a-record-\x01'\n", "\x02\x01\x09", string(record[:len(record)-1]), "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"} {
		if _, err := etl.LoadStaged(wh, wh.Dialect(), "t", strings.NewReader(bad)); err == nil {
			t.Errorf("bad staging file %q accepted", bad)
		}
	}
	// Loading into a missing table fails cleanly.
	if _, err := etl.LoadStaged(wh, wh.Dialect(), "nosuch", bytes.NewReader(record)); err == nil {
		t.Error("missing table accepted")
	}
}
