package gridrdb

// Microbenchmarks for the substrates that dominate the end-to-end numbers:
// the XML-RPC codec (every Clarens call), the staging codec (every ETL
// byte), and the semantic matcher extension.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/semantic"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

// benchResultSet builds the 1000-row result shape shared by the wire
// codec benchmarks — the dominant per-row cost of the remote path in
// Table 1 / Figure 6.
func benchResultSet() *sqlengine.ResultSet {
	rs := &sqlengine.ResultSet{Columns: []string{"event_id", "run", "e_tot"}}
	for i := 0; i < 1000; i++ {
		rs.Rows = append(rs.Rows, sqlengine.Row{
			sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(100 + i%5)),
			sqlengine.NewFloat(float64(i) / 7),
		})
	}
	return rs
}

// BenchmarkWireCodecXML measures the zero-boxing XML path: cell-direct
// encoding into a reused buffer and streaming token decode straight into
// engine rows.
func BenchmarkWireCodecXML(b *testing.B) {
	rs := benchResultSet()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := clarens.MarshalResponseTo(&buf, dataaccess.WireResult(rs)); err != nil {
			b.Fatal(err)
		}
		res, err := clarens.DecodeResponse(bytes.NewReader(buf.Bytes()), func(d *clarens.Decoder) (interface{}, error) {
			return dataaccess.DecodeResultFrom(d)
		})
		if err != nil {
			b.Fatal(err)
		}
		if back := res.(*sqlengine.ResultSet); len(back.Rows) != 1000 {
			b.Fatal("row loss")
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkDecodeChunk measures the client half of one relay_scan page:
// decoding a 500-row cursor fetch chunk (2 <i8> + 6 <double> per row) off
// its plain XML-RPC document into engine rows.
func BenchmarkDecodeChunk(b *testing.B) {
	rows := make([]sqlengine.Row, 500)
	for i := range rows {
		row := sqlengine.Row{sqlengine.NewInt(int64(100000 + i)), sqlengine.NewInt(102)}
		for j := 0; j < 6; j++ {
			row = append(row, sqlengine.NewFloat(float64(i*7+j)/3.0001+0.1))
		}
		rows[i] = row
	}
	doc, err := clarens.MarshalResponse(dataaccess.WireChunk(rows, false))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := clarens.DecodeResponse(bytes.NewReader(doc), func(d *clarens.Decoder) (interface{}, error) {
			return dataaccess.DecodeChunkFrom(d)
		})
		if err != nil {
			b.Fatal(err)
		}
		if c := res.(*dataaccess.Chunk); len(c.Rows) != len(rows) {
			b.Fatal("row loss")
		}
	}
}

// BenchmarkWireCodecBinary measures the negotiated binary row framing
// (the server↔server fast path).
func BenchmarkWireCodecBinary(b *testing.B) {
	rs := benchResultSet()
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = sqlengine.AppendRowFrame(frame[:0], rs.Rows)
		back, err := sqlengine.DecodeRowFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		if len(back) != 1000 {
			b.Fatal("row loss")
		}
		b.SetBytes(int64(len(frame)))
	}
}

// BenchmarkNtupleGeneration measures the workload generator itself.
func BenchmarkNtupleGeneration(b *testing.B) {
	cfg := ntuple.Config{Name: "b", NVar: 200, NEvents: 1000, Runs: 8, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := ntuple.NewGenerator(cfg).Events()
		if len(events) != 1000 {
			b.Fatal("short generation")
		}
	}
}

// BenchmarkSemanticMatch measures schema matching over two 50-table specs
// (the §6 extension).
func BenchmarkSemanticMatch(b *testing.B) {
	mkSpec := func(name, prefix string) *xspec.LowerSpec {
		s := &xspec.LowerSpec{Name: name, Dialect: "ansi"}
		for i := 0; i < 50; i++ {
			s.Tables = append(s.Tables, xspec.TableSpec{
				Name: fmt.Sprintf("%stable_%d", prefix, i),
				Columns: []xspec.ColumnSpec{
					{Name: "id", Kind: "INTEGER"},
					{Name: fmt.Sprintf("val_%d", i), Kind: "DOUBLE"},
					{Name: "tag", Kind: "VARCHAR"},
				},
			})
		}
		return s
	}
	left := mkSpec("a", "")
	right := mkSpec("b", "tbl_")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := semantic.MatchSpecs(left, right, semantic.DefaultOptions())
		if len(m) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkXSpecGenerate measures live-introspection cost (the schema
// tracker pays this every interval, §4.9).
func BenchmarkXSpecGenerate(b *testing.B) {
	e := sqlengine.NewEngine("bx", sqlengine.DialectMySQL)
	for i := 0; i < 40; i++ {
		if _, err := e.Exec(fmt.Sprintf("CREATE TABLE `t%d` (`a` BIGINT, `b` DOUBLE, `c` VARCHAR(32))", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := xspec.Generate("bx", "mysql", e)
		if err != nil || len(spec.Tables) != 40 {
			b.Fatalf("%v %d", err, len(spec.Tables))
		}
		data, err := spec.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		_ = xspec.FingerprintOf(data)
	}
}

// BenchmarkWireThroughput measures raw rows/sec through the TCP wire
// protocol with a trivial query (no netsim charging).
func BenchmarkWireRoundTrip(b *testing.B) {
	d := benchDeployment(b)
	fed := d.Serv1.Federation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := fed.QuerySource(context.Background(), "d1", "SELECT 1")
		if err != nil || len(rs.Rows) != 1 {
			b.Fatalf("%v", err)
		}
	}
}

// BenchmarkDecomposedJoin runs the statement shape of the benchmark's
// decomposed_join workload — a mart table joined with its replica on
// another member database over a 1 500-id range, reading 6 of their 16
// columns — through a federation of two local:// member engines:
// planning and rendering, both member sub-queries through database/sql,
// and the pipelined hash join. Profile the decomposed path with
//
//	go test -run xxx -bench DecomposedJoin -memprofile mem.out .
func BenchmarkDecomposedJoin(b *testing.B) {
	upper := &xspec.UpperSpec{Name: "bdj"}
	lowers := map[string]*xspec.LowerSpec{}
	for _, m := range []struct {
		name, table string
		d           *sqlengine.Dialect
	}{{"bdj_mysql", "ev_run100", sqlengine.DialectMySQL}, {"bdj_sqlite", "ev_replica", sqlengine.DialectSQLite}} {
		e := sqlengine.NewEngine(m.name, m.d)
		if _, err := e.Exec("CREATE TABLE " + m.table + " (event_id BIGINT PRIMARY KEY, run BIGINT, " +
			"v0 DOUBLE, v1 DOUBLE, v2 DOUBLE, v3 DOUBLE, v4 DOUBLE, v5 DOUBLE)"); err != nil {
			b.Fatal(err)
		}
		rows := make([]sqlengine.Row, 4000)
		for i := range rows {
			rows[i] = sqlengine.Row{sqlengine.NewInt(int64(i)), sqlengine.NewInt(int64(100 + i%4))}
			for j := 0; j < 6; j++ {
				rows[i] = append(rows[i], sqlengine.NewFloat(float64(i*7+j)/3.0001))
			}
		}
		if _, err := e.InsertRows(m.table, rows); err != nil {
			b.Fatal(err)
		}
		sqldriver.RegisterEngine(e)
		defer sqldriver.UnregisterEngine(m.name)
		spec, err := xspec.Generate(m.name, m.d.Name, e)
		if err != nil {
			b.Fatal(err)
		}
		lowers[m.name] = spec
		upper.Sources = append(upper.Sources, xspec.SourceRef{Name: m.name, URL: "local://" + m.name, Driver: m.d.DriverName})
	}
	fed, err := unity.Open(upper, lowers)
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()
	q := "SELECT a.event_id, a.run, a.v0, a.v1, b.v0 AS r_v0, b.v1 AS r_v1 FROM ev_run100 a JOIN ev_replica b ON a.event_id = b.event_id " +
		"WHERE a.event_id >= 1000 AND a.event_id <= 2499 AND b.event_id >= 1000 AND b.event_id <= 2499"
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := fed.QueryContext(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Rows) != 1500 {
			b.Fatalf("%d rows, want 1500", len(rs.Rows))
		}
	}
}
