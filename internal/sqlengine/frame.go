package sqlengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The row frame is the engine's one binary Value codec. It carries rows
// between servers (the rowsb member of dataaccess.queryb and
// system.cursor.fetchb), rows and parameters over the tcp:// member
// transport (package wire), rows into spill files and ETL staging files
// (as records, see RecordWriter), and query parameters into the query
// cache's keys; its cells are the keys of every hash structure
// (appendIndexKey). docs/WIRE.md §5 specifies it; all counts and lengths
// are varints:
//
//	frame := 'R' FrameVersion rowCount row*
//	row   := cellCount cell*
//	cell  := tag payload
//
// Every Value round-trips exactly: float bits, time to the nanosecond,
// and the string/bytes distinction.

// FrameVersion is the row frame's version byte.
const FrameVersion = 1

const frameMagic = 'R'

// Cell tags, each with its payload.
const (
	tagNull   = iota // none
	tagInt           // zigzag varint
	tagFloat         // 8 bytes little-endian IEEE 754
	tagString        // uvarint length + bytes
	tagFalse         // none
	tagTrue          // none
	tagTime          // zigzag varint unix seconds + uvarint nanoseconds (UTC)
	tagBytes         // uvarint length + bytes
)

var errTruncatedFrame = errors.New("sqlengine: truncated row frame")

// AppendRowFrame appends the row frame holding rows to dst and returns
// the extended slice.
func AppendRowFrame(dst []byte, rows []Row) []byte {
	dst = append(dst, frameMagic, FrameVersion)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, row := range rows {
		dst = appendFrameRow(dst, row)
	}
	return dst
}

// appendFrameRow appends one frame row: its cell count, then its cells.
func appendFrameRow(dst []byte, row Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = appendFrameCell(dst, v)
	}
	return dst
}

// appendFrameCell appends v's cell: its tag, then its payload. A cell is
// self-delimiting, so cells concatenate without a separator.
func appendFrameCell(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindInt:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, v.Int)
	case KindFloat:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case KindString, KindBytes:
		tag := byte(tagString)
		if v.Kind == KindBytes {
			tag = tagBytes
		}
		s := v.Str()
		dst = append(dst, tag)
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case KindBool:
		if v.Bool() {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case KindTime:
		dst = append(dst, tagTime)
		dst = binary.AppendVarint(dst, v.Int)
		return binary.AppendUvarint(dst, uint64(v.aux))
	}
	return append(dst, tagNull)
}

// DecodeRowFrame decodes a row frame. A truncated or malformed frame is an
// error, never a short result.
func DecodeRowFrame(data []byte) ([]Row, error) {
	if len(data) < 2 || data[0] != frameMagic {
		return nil, errors.New("sqlengine: not a row frame")
	}
	if data[1] != FrameVersion {
		return nil, fmt.Errorf("sqlengine: unsupported row frame version %d", data[1])
	}
	nrows, n := binary.Uvarint(data[2:])
	if n <= 0 {
		return nil, errTruncatedFrame
	}
	p := data[2+n:]
	if nrows > uint64(len(p)) {
		// Each row costs at least one byte; reject absurd counts before
		// allocating for them.
		return nil, fmt.Errorf("sqlengine: row frame claims %d rows in %d bytes", nrows, len(p))
	}
	rows := make([]Row, nrows)
	for i := range rows {
		var err error
		if rows[i], p, err = decodeFrameRow(p); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// decodeFrameRow decodes the frame row at the start of p and returns it
// with the bytes after it. String and bytes cells are copied out of p.
func decodeFrameRow(p []byte) (Row, []byte, error) {
	ncells, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, nil, errTruncatedFrame
	}
	p = p[n:]
	if ncells > uint64(len(p)) {
		return nil, nil, fmt.Errorf("sqlengine: row frame claims %d cells in %d bytes", ncells, len(p))
	}
	row := make(Row, ncells)
	for i := range row {
		if len(p) == 0 {
			return nil, nil, errTruncatedFrame
		}
		tag := p[0]
		p = p[1:]
		switch tag {
		case tagNull:
		case tagInt:
			v, n := binary.Varint(p)
			if n <= 0 {
				return nil, nil, errTruncatedFrame
			}
			row[i], p = NewInt(v), p[n:]
		case tagFloat:
			if len(p) < 8 {
				return nil, nil, errTruncatedFrame
			}
			row[i], p = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(p))), p[8:]
		case tagString, tagBytes:
			l, n := binary.Uvarint(p)
			if n <= 0 || l > uint64(len(p)-n) {
				return nil, nil, errTruncatedFrame
			}
			b := p[n : n+int(l)]
			if tag == tagString {
				row[i] = NewString(string(b))
			} else {
				row[i] = NewBytes(b)
			}
			p = p[n+int(l):]
		case tagFalse, tagTrue:
			row[i] = NewBool(tag == tagTrue)
		case tagTime:
			sec, n := binary.Varint(p)
			if n <= 0 {
				return nil, nil, errTruncatedFrame
			}
			p = p[n:]
			nsec, n := binary.Uvarint(p)
			if n <= 0 {
				return nil, nil, errTruncatedFrame
			}
			if nsec >= 1e9 {
				return nil, nil, fmt.Errorf("sqlengine: row frame has invalid nanoseconds %d", nsec)
			}
			row[i], p = Value{Kind: KindTime, Int: sec, aux: uint32(nsec)}, p[n:]
		default:
			return nil, nil, fmt.Errorf("sqlengine: unknown row frame cell tag %d", tag)
		}
	}
	return row, p, nil
}
