package gridrdb

// Microbenchmarks for the substrates that dominate the end-to-end numbers:
// the XML-RPC codec (every Clarens call), the staging codec (every ETL
// byte), and the semantic matcher extension.

import (
	"bytes"
	"fmt"
	"testing"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/semantic"
	"gridrdb/internal/sqlengine"
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
		frame = dataaccess.AppendRowsBinary(frame[:0], rs.Rows)
		back, err := dataaccess.DecodeRowsBinary(frame)
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
		rs, err := fed.QuerySource("d1", "SELECT 1")
		if err != nil || len(rs.Rows) != 1 {
			b.Fatalf("%v", err)
		}
	}
}
