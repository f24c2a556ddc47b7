package dataaccess

// The zero-boxing wire codec for row payloads.
//
// Two encodings serve rows, fastest first:
//
//   - Binary row framing (RowCodecVersion): a compact length-prefixed
//     binary encoding of []sqlengine.Row carried inside a single XML-RPC
//     <base64> value. Used for server↔server traffic (remote forwards,
//     cursor-fetch relays) after a per-peer capability handshake
//     (system.capabilities advertises "rowcodec"); peers that do not
//     advertise it — third-party clients, older servers — transparently
//     keep the plain XML representation, preserving the paper's
//     interoperability story.
//   - Direct XML encoding: wireRows implements clarens.ValueMarshaler, so
//     the standard {columns, rows} response is rendered cell-by-cell
//     straight into the output buffer with no []interface{} boxing. On the
//     wire it is byte-identical to the same payload boxed into the
//     interface{} family (TestWireResultMatchesBoxed), so generic clients
//     decode it with DecodeResult/DecodeChunk.
//
// Invariants: every sqlengine.Value kind round-trips through the binary
// codec exactly (including sub-second time precision, which XML-RPC's
// dateTime cannot carry); the XML row path round-trips with the fidelity
// XML-RPC's scalar types allow.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/sqlengine"
)

// RowCodecVersion is the binary row-framing version this server speaks,
// advertised as "rowcodec" by system.capabilities. Version 0 means
// plain-XML only.
const RowCodecVersion = 1

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
	b := AppendRowsBinary((*p)[:0], rows)
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
// straight off the streaming wire decoder into engine rows — the
// zero-boxing counterpart of DecodeRows. Every row is allocated once, at
// the first row's width, and the row list once, at its final length.
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

// DecodeResultFrom decodes a {columns, rows|rowsb} result payload off the
// streaming wire decoder — the zero-boxing counterpart of DecodeResult,
// accepting both the plain XML row representation and the negotiated
// binary framing. Unknown members (route, servers, ...) are skipped.
func DecodeResultFrom(d *clarens.Decoder) (*sqlengine.ResultSet, error) {
	rs := &sqlengine.ResultSet{}
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
			sc, err := d.Scalar()
			if err != nil {
				return err
			}
			if sc.Kind != clarens.ScalarBytes {
				return fmt.Errorf("dataaccess: \"rowsb\" is not a base64 payload")
			}
			rows, err := DecodeRowsBinary(sc.Bytes)
			if err != nil {
				return err
			}
			haveRows = true
			rs.Rows = rows
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
	return rs, nil
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

// DecodeChunkFrom decodes a cursor fetch chunk ({rows|rowsb, done}) off
// the streaming wire decoder — the zero-boxing counterpart of DecodeChunk.
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
			sc, err := d.Scalar()
			if err != nil {
				return err
			}
			if sc.Kind != clarens.ScalarBytes {
				return fmt.Errorf("dataaccess: \"rowsb\" is not a base64 payload")
			}
			rows, err := DecodeRowsBinary(sc.Bytes)
			if err != nil {
				return err
			}
			haveRows = true
			c.Rows = rows
			return nil
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

// ---- binary row framing ----

// Binary frame layout (version 1), all integers varint-encoded:
//
//	'R' 0x01 | rowCount | rows...
//	row  := cellCount | cells...
//	cell := kind | payload
//
// Cell kinds and payloads:
//
//	0 null        (no payload)
//	1 int         zigzag varint
//	2 float       8 bytes little-endian IEEE 754
//	3 string      uvarint length + bytes
//	4 bool false  (no payload)
//	5 bool true   (no payload)
//	6 time        zigzag varint unix seconds + uvarint nanoseconds (UTC)
//	7 bytes       uvarint length + bytes
//
// Unlike the XML dateTime (whole seconds), time cells round-trip at full
// nanosecond precision.
const (
	binMagic   = 'R'
	binVersion = 1

	cellNull  = 0
	cellInt   = 1
	cellFloat = 2
	cellStr   = 3
	cellFalse = 4
	cellTrue  = 5
	cellTime  = 6
	cellBytes = 7
)

// AppendRowsBinary appends the binary frame for rows to dst and returns
// the extended slice.
func AppendRowsBinary(dst []byte, rows []sqlengine.Row) []byte {
	dst = append(dst, binMagic, binVersion)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, v := range row {
			switch v.Kind {
			case sqlengine.KindInt:
				dst = append(dst, cellInt)
				dst = binary.AppendVarint(dst, v.Int)
			case sqlengine.KindFloat:
				dst = append(dst, cellFloat)
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
			case sqlengine.KindString, sqlengine.KindBytes:
				tag := byte(cellStr)
				if v.Kind == sqlengine.KindBytes {
					tag = cellBytes
				}
				s := v.Str()
				dst = append(dst, tag)
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			case sqlengine.KindBool:
				if v.Bool() {
					dst = append(dst, cellTrue)
				} else {
					dst = append(dst, cellFalse)
				}
			case sqlengine.KindTime:
				t := v.Time()
				dst = append(dst, cellTime)
				dst = binary.AppendVarint(dst, t.Unix())
				dst = binary.AppendUvarint(dst, uint64(t.Nanosecond()))
			default:
				dst = append(dst, cellNull)
			}
		}
	}
	return dst
}

// DecodeRowsBinary decodes a binary row frame. Truncated or malformed
// frames are protocol errors, never silent truncation.
func DecodeRowsBinary(data []byte) ([]sqlengine.Row, error) {
	if len(data) < 2 || data[0] != binMagic {
		return nil, fmt.Errorf("dataaccess: not a binary row frame")
	}
	if data[1] != binVersion {
		return nil, fmt.Errorf("dataaccess: unsupported row frame version %d", data[1])
	}
	p := data[2:]
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("dataaccess: truncated row frame")
		}
		p = p[n:]
		return v, nil
	}
	sv := func() (int64, error) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, fmt.Errorf("dataaccess: truncated row frame")
		}
		p = p[n:]
		return v, nil
	}
	take := func(n uint64) ([]byte, error) {
		if n > uint64(len(p)) {
			return nil, fmt.Errorf("dataaccess: truncated row frame")
		}
		b := p[:n]
		p = p[n:]
		return b, nil
	}
	nrows, err := uv()
	if err != nil {
		return nil, err
	}
	if nrows > uint64(len(p)) {
		// Each row costs at least one byte; reject absurd counts before
		// allocating for them.
		return nil, fmt.Errorf("dataaccess: row frame claims %d rows in %d bytes", nrows, len(p))
	}
	rows := make([]sqlengine.Row, 0, nrows)
	for r := uint64(0); r < nrows; r++ {
		ncells, err := uv()
		if err != nil {
			return nil, err
		}
		if ncells > uint64(len(p)) {
			return nil, fmt.Errorf("dataaccess: row frame claims %d cells in %d bytes", ncells, len(p))
		}
		row := make(sqlengine.Row, 0, ncells)
		for c := uint64(0); c < ncells; c++ {
			if len(p) == 0 {
				return nil, fmt.Errorf("dataaccess: truncated row frame")
			}
			kind := p[0]
			p = p[1:]
			switch kind {
			case cellNull:
				row = append(row, sqlengine.Null())
			case cellInt:
				v, err := sv()
				if err != nil {
					return nil, err
				}
				row = append(row, sqlengine.NewInt(v))
			case cellFloat:
				b, err := take(8)
				if err != nil {
					return nil, err
				}
				row = append(row, sqlengine.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))))
			case cellStr:
				n, err := uv()
				if err != nil {
					return nil, err
				}
				b, err := take(n)
				if err != nil {
					return nil, err
				}
				row = append(row, sqlengine.NewString(string(b)))
			case cellFalse:
				row = append(row, sqlengine.NewBool(false))
			case cellTrue:
				row = append(row, sqlengine.NewBool(true))
			case cellTime:
				sec, err := sv()
				if err != nil {
					return nil, err
				}
				nsec, err := uv()
				if err != nil {
					return nil, err
				}
				if nsec >= 1e9 {
					return nil, fmt.Errorf("dataaccess: row frame has invalid nanoseconds %d", nsec)
				}
				row = append(row, sqlengine.NewTime(time.Unix(sec, int64(nsec)).UTC()))
			case cellBytes:
				n, err := uv()
				if err != nil {
					return nil, err
				}
				b, err := take(n)
				if err != nil {
					return nil, err
				}
				row = append(row, sqlengine.NewBytes(b))
			default:
				return nil, fmt.Errorf("dataaccess: unknown row frame cell kind %d", kind)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
