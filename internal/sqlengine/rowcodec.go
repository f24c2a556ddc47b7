package sqlengine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The row codec is the private binary encoding of spill files; its cell
// encoding is also Value's gob encoding (the wire transport's rows and
// parameters). A row is its cell count then its cells; a cell is its kind
// byte then its payload:
//
//	null, bool false/true   (kind byte only; a bool is 0 or 1 after it)
//	int                     zigzag varint
//	float                   8 bytes little-endian IEEE 754
//	string, bytes           uvarint length + bytes
//	time                    zigzag varint unix seconds + uvarint nanoseconds
//
// It round-trips every Value exactly: float bits, time to the nanosecond,
// and the string/bytes distinction.

// appendRow appends row's encoding to b.
func appendRow(b []byte, row Row) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		var err error
		if b, err = appendCell(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendCell(b []byte, v Value) ([]byte, error) {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindInt:
		b = binary.AppendVarint(b, v.Int)
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float))
	case KindString, KindBytes:
		s := v.Str()
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	case KindBool:
		b = append(b, byte(v.aux))
	case KindTime:
		b = binary.AppendVarint(b, v.Int)
		b = binary.AppendUvarint(b, uint64(v.aux))
	default:
		return nil, fmt.Errorf("sqlengine: cannot encode value kind %s", v.Kind)
	}
	return b, nil
}

// cellReader is what readCell reads from: a bufio.Reader over a spill
// file or a bytes.Reader over a gob payload.
type cellReader interface {
	io.Reader
	io.ByteReader
}

// readCell decodes one cell; scratch is a reusable buffer for string and
// bytes payloads, which the constructors copy out of.
func readCell(r cellReader, scratch *[]byte) (Value, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return Value{}, fmt.Errorf("sqlengine: truncated row: %w", err)
	}
	switch k := Kind(kb); k {
	case KindNull:
		return Null(), nil
	case KindInt:
		i, err := binary.ReadVarint(r)
		if err != nil {
			return Value{}, fmt.Errorf("sqlengine: truncated int: %w", err)
		}
		return NewInt(i), nil
	case KindFloat:
		var fb [8]byte
		if _, err := io.ReadFull(r, fb[:]); err != nil {
			return Value{}, fmt.Errorf("sqlengine: truncated float: %w", err)
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(fb[:]))), nil
	case KindString, KindBytes:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return Value{}, fmt.Errorf("sqlengine: truncated %s length: %w", k, err)
		}
		if br, ok := r.(*bytes.Reader); ok && n > uint64(br.Len()) {
			return Value{}, fmt.Errorf("sqlengine: truncated %s", k)
		}
		if uint64(cap(*scratch)) < n {
			*scratch = make([]byte, n)
		}
		b := (*scratch)[:n]
		if _, err := io.ReadFull(r, b); err != nil {
			return Value{}, fmt.Errorf("sqlengine: truncated %s: %w", k, err)
		}
		if k == KindBytes {
			return NewBytes(b), nil
		}
		return NewString(string(b)), nil
	case KindBool:
		bb, err := r.ReadByte()
		if err != nil {
			return Value{}, fmt.Errorf("sqlengine: truncated bool: %w", err)
		}
		return NewBool(bb != 0), nil
	case KindTime:
		sec, err := binary.ReadVarint(r)
		if err != nil {
			return Value{}, fmt.Errorf("sqlengine: truncated time: %w", err)
		}
		nsec, err := binary.ReadUvarint(r)
		if err != nil || nsec >= 1e9 {
			return Value{}, fmt.Errorf("sqlengine: bad time nanoseconds %d: %v", nsec, err)
		}
		return Value{Kind: KindTime, Int: sec, aux: uint32(nsec)}, nil
	}
	return Value{}, fmt.Errorf("sqlengine: corrupt row encoding: kind byte %d", kb)
}

// GobEncode implements gob.GobEncoder: gob cannot see Value's unexported
// payload fields.
func (v Value) GobEncode() ([]byte, error) { return appendCell(nil, v) }

// GobDecode implements gob.GobDecoder.
func (v *Value) GobDecode(data []byte) error {
	br := bytes.NewReader(data)
	var scratch []byte
	got, err := readCell(br, &scratch)
	if err != nil {
		return err
	}
	if br.Len() != 0 {
		return fmt.Errorf("sqlengine: %d trailing bytes after value", br.Len())
	}
	*v = got
	return nil
}
