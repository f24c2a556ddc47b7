package dataaccess

// The zero-boxing wire codec for row payloads.
//
// Two encodings serve rows, fastest first:
//
//   - Binary row framing (RowCodecVersion): sqlengine's row frame
//     (AppendRowFrame/DecodeRowFrame, docs/WIRE.md §5) carried inside a
//     single XML-RPC <base64> value. Used for server↔server traffic
//     (remote forwards, cursor-fetch relays) after a per-peer capability
//     handshake (system.capabilities advertises "rowcodec"); peers that
//     do not advertise it — third-party clients, older servers —
//     transparently keep the plain XML representation, preserving the
//     paper's interoperability story.
//   - Direct XML encoding: wireRows implements clarens.ValueMarshaler, so
//     the standard {columns, rows} response is rendered cell-by-cell
//     straight into the output buffer with no []interface{} boxing. On the
//     wire it is byte-identical to the same payload boxed into the
//     interface{} family (TestWireResultMatchesBoxed), so a generic
//     XML-RPC client reads it as plain structs and arrays. Go clients
//     decode it with DecodeQueryResultFrom/DecodeChunkFrom, straight off
//     the wire into engine rows.
//
// Invariants: every sqlengine.Value kind round-trips through the row frame
// exactly (including sub-second time precision, which XML-RPC's dateTime
// cannot carry); the XML row path round-trips with the fidelity
// XML-RPC's scalar types allow.

import (
	"fmt"
	"sync"

	"gridrdb/internal/clarens"
	"gridrdb/internal/sqlengine"
)

// RowCodecVersion is the row frame version this server speaks,
// advertised as "rowcodec" by system.capabilities. Version 0 means
// plain-XML only.
const RowCodecVersion = sqlengine.FrameVersion

// ---- direct XML row encoding (clarens.ValueMarshaler) ----

// wireRows encodes []sqlengine.Row cell-direct into the XML-RPC document:
// no boxing into []interface{}, no per-cell fmt formatting.
type wireRows []sqlengine.Row

// MarshalXMLRPC implements clarens.ValueMarshaler.
func (rows wireRows) MarshalXMLRPC(e *clarens.Encoder) error {
	e.BeginArray()
	for _, row := range rows {
		e.BeginArray()
		for _, v := range row {
			encodeCell(e, v)
		}
		e.EndArray()
	}
	e.EndArray()
	return nil
}

func encodeCell(e *clarens.Encoder, v sqlengine.Value) {
	switch v.Kind {
	case sqlengine.KindInt:
		e.Int(v.Int)
	case sqlengine.KindFloat:
		e.Float(v.Float)
	case sqlengine.KindString:
		e.String(v.Str())
	case sqlengine.KindBool:
		e.Bool(v.Bool())
	case sqlengine.KindTime:
		e.Time(v.Time())
	case sqlengine.KindBytes:
		e.Bytes(v.Bytes())
	default:
		e.Nil()
	}
}

// binaryRows encodes []sqlengine.Row as one base64 value holding the
// binary row frame, assembled in a pooled scratch slice so the
// steady-state encode allocates nothing.
type binaryRows []sqlengine.Row

var binPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// MarshalXMLRPC implements clarens.ValueMarshaler.
func (rows binaryRows) MarshalXMLRPC(e *clarens.Encoder) error {
	p := binPool.Get().(*[]byte)
	b := sqlengine.AppendRowFrame((*p)[:0], rows)
	e.Bytes(b)
	*p = b
	if cap(b) <= 4<<20 { // don't let one huge frame pin the pool
		binPool.Put(p)
	}
	return nil
}

// WireResult is the fast {columns, rows} payload the dataaccess.query
// method returns: rows encode cell-direct, and on the wire the document is
// what a generic client's boxed {columns, rows} struct would render.
func WireResult(rs *sqlengine.ResultSet) map[string]interface{} {
	return map[string]interface{}{"columns": rs.Columns, "rows": wireRows(rs.Rows)}
}

// wireResultBinary is the negotiated {columns, rowsb} payload of
// dataaccess.queryb.
func wireResultBinary(rs *sqlengine.ResultSet) map[string]interface{} {
	return map[string]interface{}{"columns": rs.Columns, "rowsb": binaryRows(rs.Rows)}
}

// WireChunk frames one cursor fetch response with cell-direct row
// encoding; wireChunkBinary is its negotiated binary twin.
func WireChunk(rows []sqlengine.Row, done bool) map[string]interface{} {
	return map[string]interface{}{"rows": wireRows(rows), "done": done}
}

func wireChunkBinary(rows []sqlengine.Row, done bool) map[string]interface{} {
	return map[string]interface{}{"rowsb": binaryRows(rows), "done": done}
}

// ---- streaming XML decode into engine rows ----

// valueFromScalar moves one decoded wire scalar into an engine value with
// no interface boxing.
func valueFromScalar(sc clarens.Scalar) sqlengine.Value {
	switch sc.Kind {
	case clarens.ScalarBool:
		return sqlengine.NewBool(sc.Bool)
	case clarens.ScalarInt:
		return sqlengine.NewInt(sc.Int)
	case clarens.ScalarFloat:
		return sqlengine.NewFloat(sc.Float)
	case clarens.ScalarString:
		return sqlengine.NewString(sc.Str)
	case clarens.ScalarTime:
		return sqlengine.NewTime(sc.Time)
	case clarens.ScalarBytes:
		return sqlengine.NewBytes(sc.Bytes)
	}
	return sqlengine.Null()
}

// DecodeRowsFrom decodes a rows payload (array of arrays of scalars)
// straight off the streaming wire decoder into engine rows, with no
// interface boxing. Every row is allocated once, at the first row's
// width, and the row list once, at its final length.
func DecodeRowsFrom(d *clarens.Decoder) ([]sqlengine.Row, error) {
	buf := rowScratchPool.Get().(*rowScratch)
	defer buf.release()
	width := -1
	err := d.DecodeArray(func(d *clarens.Decoder) error {
		row := buf.first[:0]
		if width >= 0 {
			row = make(sqlengine.Row, 0, width)
		}
		if err := d.DecodeArray(func(d *clarens.Decoder) error {
			sc, err := d.Scalar()
			if err != nil {
				return err
			}
			row = append(row, valueFromScalar(sc))
			return nil
		}); err != nil {
			return err
		}
		if width < 0 {
			width, buf.first = len(row), row
			row = append(make(sqlengine.Row, 0, width), row...)
		}
		buf.rows = append(buf.rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]sqlengine.Row, len(buf.rows))
	copy(rows, buf.rows)
	return rows, nil
}

// rowScratch is DecodeRowsFrom's pooled working space: the growing row
// list, copied out at its final length, and the first row, decoded before
// the width is known and copied out at it.
type rowScratch struct {
	rows  []sqlengine.Row
	first sqlengine.Row
}

var rowScratchPool = sync.Pool{New: func() interface{} { return new(rowScratch) }}

// release clears the scratch (so the pool pins no decoded value) and
// pools it unless one huge page grew it.
func (sc *rowScratch) release() {
	clear(sc.rows)
	clear(sc.first)
	sc.rows, sc.first = sc.rows[:0], sc.first[:0]
	if cap(sc.rows) <= 1<<14 {
		rowScratchPool.Put(sc)
	}
}

// DecodeQueryResultFrom decodes a dataaccess.query or dataaccess.queryb
// response ({columns, rows|rowsb, route, servers}) off the streaming wire
// decoder, accepting both the plain XML row representation and the
// negotiated binary framing. route and servers may be absent (a bare
// {columns, rows} result leaves them zero); unknown members are skipped.
// A missing columns or rows member, a member of the wrong type, or a row
// with more or fewer cells than there are columns is a protocol error.
func DecodeQueryResultFrom(d *clarens.Decoder) (*QueryResult, error) {
	rs := &sqlengine.ResultSet{}
	qr := &QueryResult{ResultSet: rs}
	haveCols, haveRows := false, false
	err := d.DecodeStruct(func(name string, d *clarens.Decoder) error {
		switch name {
		case "columns":
			haveCols = true
			rs.Columns = []string{}
			return d.DecodeArray(func(d *clarens.Decoder) error {
				sc, err := d.Scalar()
				if err != nil {
					return err
				}
				if sc.Kind != clarens.ScalarString {
					return fmt.Errorf("dataaccess: column %d is not a string", len(rs.Columns))
				}
				rs.Columns = append(rs.Columns, sc.Str)
				return nil
			})
		case "rows":
			haveRows = true
			rows, err := DecodeRowsFrom(d)
			rs.Rows = rows
			return err
		case "rowsb":
			haveRows = true
			rows, err := decodeRowsb(d)
			rs.Rows = rows
			return err
		case "route":
			sc, err := d.Scalar()
			if err != nil {
				return err
			}
			if sc.Kind != clarens.ScalarString {
				return fmt.Errorf("dataaccess: result \"route\" is not a string")
			}
			qr.Route = Route(sc.Str)
			return nil
		case "servers":
			sc, err := d.Scalar()
			if err != nil {
				return err
			}
			if sc.Kind != clarens.ScalarInt {
				return fmt.Errorf("dataaccess: result \"servers\" is not an int")
			}
			qr.Servers = int(sc.Int)
			return nil
		default:
			return d.SkipValue()
		}
	})
	if err != nil {
		return nil, err
	}
	if !haveCols {
		return nil, fmt.Errorf("dataaccess: result has no \"columns\" field")
	}
	if !haveRows {
		return nil, fmt.Errorf("dataaccess: result has no \"rows\" field")
	}
	if err := checkRowWidths(rs.Rows, len(rs.Columns)); err != nil {
		return nil, err
	}
	return qr, nil
}

// DecodeResultFrom is DecodeQueryResultFrom without the route: the result
// set alone, as a forward hands it to the operators.
func DecodeResultFrom(d *clarens.Decoder) (*sqlengine.ResultSet, error) {
	qr, err := DecodeQueryResultFrom(d)
	if err != nil {
		return nil, err
	}
	return qr.ResultSet, nil
}

// decodeRowsb decodes a "rowsb" member: one base64 value holding a row
// frame.
func decodeRowsb(d *clarens.Decoder) ([]sqlengine.Row, error) {
	sc, err := d.Scalar()
	if err != nil {
		return nil, err
	}
	if sc.Kind != clarens.ScalarBytes {
		return nil, fmt.Errorf("dataaccess: \"rowsb\" is not a base64 payload")
	}
	return sqlengine.DecodeRowFrame(sc.Bytes)
}

// checkRowWidths rejects a ragged payload: operators index cells by column
// position, so a peer's row with more or fewer cells than the result has
// columns is a protocol error, not a row to pass on.
func checkRowWidths(rows []sqlengine.Row, width int) error {
	for i, row := range rows {
		if len(row) != width {
			return fmt.Errorf("dataaccess: protocol error: row %d has %d cells for %d columns", i, len(row), width)
		}
	}
	return nil
}

// Chunk is one decoded frame of the cursor fetch protocol.
type Chunk struct {
	Rows []sqlengine.Row
	// Done reports stream exhaustion; a Done chunk may still carry rows.
	Done bool
}

// DecodeChunkFrom decodes a cursor fetch chunk ({rows|rowsb, done}) off
// the streaming wire decoder. A missing member or a "done" that is not a
// bool is a protocol error.
func DecodeChunkFrom(d *clarens.Decoder) (*Chunk, error) {
	c := &Chunk{}
	haveRows, haveDone := false, false
	err := d.DecodeStruct(func(name string, d *clarens.Decoder) error {
		switch name {
		case "rows":
			haveRows = true
			rows, err := DecodeRowsFrom(d)
			c.Rows = rows
			return err
		case "rowsb":
			haveRows = true
			rows, err := decodeRowsb(d)
			c.Rows = rows
			return err
		case "done":
			sc, err := d.Scalar()
			if err != nil {
				return err
			}
			if sc.Kind != clarens.ScalarBool {
				return fmt.Errorf("dataaccess: chunk \"done\" is not a bool")
			}
			c.Done = sc.Bool
			haveDone = true
			return nil
		default:
			return d.SkipValue()
		}
	})
	if err != nil {
		return nil, err
	}
	if !haveRows {
		return nil, fmt.Errorf("dataaccess: chunk has no \"rows\" field")
	}
	if !haveDone {
		return nil, fmt.Errorf("dataaccess: chunk has no \"done\" field")
	}
	return c, nil
}

// AppendRowsBinary is sqlengine.AppendRowFrame. It and DecodeRowsBinary
// remain only because bench/layers.go calls them by these names; they go
// when the benchmark switches to the sqlengine names.
func AppendRowsBinary(dst []byte, rows []sqlengine.Row) []byte {
	return sqlengine.AppendRowFrame(dst, rows)
}

// DecodeRowsBinary is sqlengine.DecodeRowFrame; see AppendRowsBinary.
func DecodeRowsBinary(data []byte) ([]sqlengine.Row, error) { return sqlengine.DecodeRowFrame(data) }
