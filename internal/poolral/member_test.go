package poolral

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/wire"
	"gridrdb/internal/xspec"
)

// genericDriverName is gridrdb's driver with its typed entry hidden: its
// connections offer database/sql what a third-party driver would, so
// sqlengine.QueryDB reads them through QueryContext and Scan.
const genericDriverName = "gridsql-generic-test"

// genericQueries counts statements run through the generic driver, so a
// test can tell that the generic path really ran.
var genericQueries atomic.Int64

func init() { sql.Register(genericDriverName, genericDriver{&sqldriver.Driver{}}) }

type genericDriver struct{ *sqldriver.Driver }

func (d genericDriver) Open(dsn string) (driver.Conn, error) {
	c, err := d.Driver.Open(dsn)
	if err != nil {
		return nil, err
	}
	return genericConn{c}, nil
}

// genericConn exposes driver.Conn, QueryerContext and NamedValueChecker
// only: no sqlengine.ValueQueryer.
type genericConn struct{ driver.Conn }

func (c genericConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	genericQueries.Add(1)
	return c.Conn.(driver.QueryerContext).QueryContext(ctx, query, args)
}

func (c genericConn) CheckNamedValue(nv *driver.NamedValue) error {
	return c.Conn.(driver.NamedValueChecker).CheckNamedValue(nv)
}

// sameValue reports whether two values are identical: the same kind and
// the same payload bit for bit (a NaN equals its own bits, -0.0 differs
// from 0).
func sameValue(a, b sqlengine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqlengine.KindInt:
		return a.Int == b.Int
	case sqlengine.KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case sqlengine.KindString, sqlengine.KindBytes:
		return a.Str() == b.Str()
	case sqlengine.KindBool:
		return a.Bool() == b.Bool()
	case sqlengine.KindTime:
		return a.Time().Equal(b.Time())
	}
	return true
}

// TestMemberValuesMatchGenericDriver: a member table holding every value
// kind and its edges reads the same through a federation source and
// through a POOL-RAL handle, over local:// and tcp://, whether the driver
// hands on the engine's own Values (sqlengine.ValueQueryer) or
// database/sql boxes and scans them; and both read what the engine itself
// answers, headers included.
func TestMemberValuesMatchGenericDriver(t *testing.T) {
	e := sqlengine.NewEngine("kinds", sqlengine.DialectMySQL)
	if err := e.ExecScript("CREATE TABLE kinds (id BIGINT PRIMARY KEY, i BIGINT, f DOUBLE, s VARCHAR(32), b BLOB, ts TIMESTAMP, ok BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	v := func(xs ...any) sqlengine.Row {
		row := make(sqlengine.Row, len(xs))
		for i, x := range xs {
			var err error
			if row[i], err = sqlengine.ValueOf(x); err != nil {
				t.Fatal(err)
			}
		}
		return row
	}
	east := time.FixedZone("east", 5*3600)
	rows := []sqlengine.Row{
		v(int64(1), nil, nil, nil, nil, nil, nil),
		v(int64(2), int64(math.MinInt64), math.Copysign(0, -1), "", []byte{}, time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), false),
		v(int64(3), int64(math.MaxInt64), math.NaN(), "\xff\xfe", []byte{0, 0xff}, time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), true),
		v(int64(4), int64(1<<53+1), math.Inf(1), "x", []byte("\xc3"), time.Date(2005, 6, 1, 12, 0, 0, 123456789, east), true),
		v(int64(5), int64(-1<<53-1), math.Inf(-1), "'quoted'", []byte(""), time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), false),
		v(int64(6), int64(0), 1e-310, "€", []byte("bytes"), time.Unix(0, 0), false),
	}
	if _, err := e.InsertRows("kinds", rows); err != nil {
		t.Fatal(err)
	}
	want, err := e.Query("SELECT * FROM kinds")
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != len(rows) {
		t.Fatalf("engine holds %d rows, want %d", len(want.Rows), len(rows))
	}
	if got := want.Rows[2][4]; got.Kind != sqlengine.KindBytes || got.Str() != "\x00\xff" {
		t.Fatalf("engine stored b = %#v", got)
	}
	sqldriver.RegisterEngine(e)
	t.Cleanup(func() { sqldriver.UnregisterEngine("kinds") })
	srv := wire.NewServer(nil)
	srv.AddEngine(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec, err := xspec.Generate("kinds", "mysql", e)
	if err != nil {
		t.Fatal(err)
	}

	check := func(what string, got *sqlengine.ResultSet, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got.Columns) != len(want.Columns) {
			t.Fatalf("%s: header %q, want %q", what, got.Columns, want.Columns)
		}
		for i := range want.Columns {
			if got.Columns[i] != want.Columns[i] {
				t.Fatalf("%s: header %q, want %q", what, got.Columns, want.Columns)
			}
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", what, len(got.Rows), len(want.Rows))
		}
		for r, row := range want.Rows {
			for c, w := range row {
				if g := got.Rows[r][c]; !sameValue(g, w) {
					t.Errorf("%s: row %d column %s = %#v (%s), want %#v (%s)", what, r, want.Columns[c], g, g.Kind, w, w.Kind)
				}
			}
		}
	}
	ctx := context.Background()
	for _, dsn := range []string{"local://kinds", "tcp://" + addr + "/kinds"} {
		for _, drv := range []string{"gridsql-mysql", genericDriverName} {
			before := genericQueries.Load()
			fed, err := unity.Open(&xspec.UpperSpec{Name: "kinds", Sources: []xspec.SourceRef{{Name: "kinds", URL: dsn, Driver: drv}}},
				map[string]*xspec.LowerSpec{"kinds": spec})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := fed.QueryContext(ctx, "SELECT * FROM kinds")
			check("federation "+drv+" "+dsn, rs, err)
			fed.Close()

			db, err := sql.Open(drv, dsn)
			if err != nil {
				t.Fatal(err)
			}
			r := New()
			r.handles["mysql:"+dsn] = &handle{db: db, dialect: sqlengine.DialectMySQL}
			rs, err = r.QueryValuesContext(ctx, "mysql:"+dsn, nil, []string{"kinds"}, "")
			check("POOL-RAL "+drv+" "+dsn, rs, err)
			r.Close()

			if ran := genericQueries.Load() - before; (drv == genericDriverName) != (ran == 2) {
				t.Errorf("%s %s: %d statements ran through database/sql's QueryContext", drv, dsn, ran)
			}
		}
	}
}

// BenchmarkMemberScan streams a 2 000-row, eight-column table through a
// POOL-RAL handle: the member read of relay_scan's peer.
func BenchmarkMemberScan(b *testing.B) {
	e := sqlengine.NewEngine("memberscan", sqlengine.DialectMySQL)
	if _, err := e.Exec("CREATE TABLE scan (id BIGINT PRIMARY KEY, run BIGINT, name VARCHAR(16), " +
		"v0 DOUBLE, v1 DOUBLE, v2 DOUBLE, v3 DOUBLE, v4 DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	rows := make([]sqlengine.Row, 2000)
	for i := range rows {
		rows[i] = sqlengine.Row{sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(100 + i%4)), sqlengine.NewString("ev")}
		for j := 0; j < 5; j++ {
			rows[i] = append(rows[i], sqlengine.NewFloat(float64(i*7+j)/3.0001))
		}
	}
	if _, err := e.InsertRows("scan", rows); err != nil {
		b.Fatal(err)
	}
	sqldriver.RegisterEngine(e)
	defer sqldriver.UnregisterEngine("memberscan")
	r := New()
	defer r.Close()
	conn := "mysql:local://memberscan"
	if err := r.InitHandler(conn, "", ""); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := r.QueryStreamContext(ctx, conn, nil, []string{"scan"}, "")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		it.Close()
		if n != len(rows) {
			b.Fatalf("%d rows, want %d", n, len(rows))
		}
	}
}

// scanMember returns the POOL-RAL connection string of a member engine
// holding scan(id, run, e) with n rows, registering it on first use.
func scanMember(tb testing.TB, n int) string {
	name := fmt.Sprintf("firstrow%d", n)
	if _, ok := sqldriver.LookupEngine(name); !ok {
		e := sqlengine.NewEngine(name, sqlengine.DialectMySQL)
		if _, err := e.Exec("CREATE TABLE scan (id BIGINT PRIMARY KEY, run BIGINT, e DOUBLE)"); err != nil {
			tb.Fatal(err)
		}
		rows := make([]sqlengine.Row, n)
		for i := range rows {
			rows[i] = sqlengine.Row{sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(100 + i%4)), sqlengine.NewFloat(float64(i) / 3)}
		}
		if _, err := e.InsertRows("scan", rows); err != nil {
			tb.Fatal(err)
		}
		sqldriver.RegisterEngine(e)
	}
	return "mysql:local://" + name
}

// firstRow opens a POOL-RAL stream over conn's scan table, reads its
// first row and closes it.
func firstRow(tb testing.TB, r *RAL, conn string) {
	it, err := r.QueryStreamContext(context.Background(), conn, nil, []string{"scan"}, "")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		tb.Fatal(err)
	}
	it.Close()
}

// BenchmarkMemberFirstRow opens a POOL-RAL stream over a 200 000-row
// member table and reads its first row: the time and bytes a member scan
// costs before its first page can leave.
func BenchmarkMemberFirstRow(b *testing.B) {
	conn := scanMember(b, 200000)
	r := New()
	defer r.Close()
	if err := r.InitHandler(conn, "", ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		firstRow(b, r, conn)
	}
}

// TestMemberFirstRowBytesIndependentOfRows: a member stream allocates as
// much before its first row over 200 000 rows as over 2 000, since the
// member engine runs its pipeline as the stream is pulled.
func TestMemberFirstRowBytesIndependentOfRows(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	perOp := func(n int) uint64 {
		conn := scanMember(t, n)
		r := New()
		defer r.Close()
		if err := r.InitHandler(conn, "", ""); err != nil {
			t.Fatal(err)
		}
		firstRow(t, r, conn)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			firstRow(t, r, conn)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := perOp(2000), perOp(200000)
	t.Logf("%d bytes before the first row over 2 000 rows, %d over 200 000", small, large)
	if large > small+small/10 {
		t.Errorf("%d bytes before the first row over 200 000 rows, %d over 2 000: the member read ahead", large, small)
	}
}

// TestMemberRowErrorMidStream: a POOL-RAL stream over a member statement
// that fails at its row 1 000 of 2 000 hands on the 999 rows before it,
// then the engine's error; the handle's connection is back in its pool
// and no goroutine is left behind.
func TestMemberRowErrorMidStream(t *testing.T) {
	defer leaktest.Check(t)()
	e := sqlengine.NewEngine("rowerr", sqlengine.DialectMySQL)
	if _, err := e.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqlengine.Row, 2000)
	for i := range rows {
		rows[i] = sqlengine.Row{sqlengine.NewInt(int64(i + 1)), sqlengine.NewInt(1)}
	}
	rows[999][1] = sqlengine.NewInt(0)
	if _, err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	sqldriver.RegisterEngine(e)
	t.Cleanup(func() { sqldriver.UnregisterEngine("rowerr") })
	r := New()
	defer r.Close()
	conn := "mysql:local://rowerr"
	if err := r.InitHandler(conn, "", ""); err != nil {
		t.Fatal(err)
	}
	it, err := r.QueryStreamContext(context.Background(), conn, []string{"id"}, []string{"t"}, "10 / d > 0")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got := int64(0)
	for {
		row, err := it.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "poolral: "+conn+": sqlengine: division by zero") {
				t.Errorf("after %d rows: %v, want the engine's division by zero", got, err)
			}
			break
		}
		if got++; row[0].Int != got {
			t.Fatalf("row %d has id %d", got, row[0].Int)
		}
	}
	if got != 999 {
		t.Errorf("%d rows before the error, want 999", got)
	}
	if n := r.handles[conn].db.Stats().InUse; n != 0 {
		t.Errorf("%d connections in use with the stream open", n)
	}
	it.Close()
}
