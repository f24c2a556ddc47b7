package clarens

// Streaming XML-RPC encoder: the write half of the zero-boxing wire path.
//
// The original codec boxed every cell into the interface{} value family and
// rendered documents with fmt.Fprintf into freshly grown buffers — around
// five allocations per cell. The Encoder here writes tokens straight into
// the output (a pooled buffer or the HTTP response stream), formats numbers
// through a fixed scratch array, and lets payload types that know their own
// shape (row sets, cursor chunks) implement ValueMarshaler and emit
// themselves without ever constructing []interface{} trees. Its documents
// are what the byte-scanning Decoder (decode.go) reads back: character
// data is escaped as encoding/xml.EscapeText does, so a "\r" survives the
// reader's line-ending normalisation as "&#xD;".

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// encWriter is the output surface the Encoder writes to. *bytes.Buffer and
// the server's streamWriter both satisfy it directly, so token writes incur
// no adapter allocations; write errors are sticky in the underlying writer
// and surface when it is flushed.
type encWriter interface {
	io.Writer
	WriteString(string) (int, error)
	WriteByte(byte) error
}

// Encoder writes XML-RPC <value> elements directly to an output stream.
// Each scalar method emits one complete value; Begin/End pairs nest arrays
// and structs. Methods do not return errors: the underlying writers either
// cannot fail (buffers) or latch the first error until flush.
type Encoder struct {
	w       encWriter
	scratch [64]byte
}

// ValueMarshaler is implemented by payload types that encode themselves
// cell-direct instead of passing through the generic interface{} value
// family (e.g. dataaccess row sets). The encoding must produce exactly one
// XML-RPC <value> element.
type ValueMarshaler interface {
	MarshalXMLRPC(e *Encoder) error
}

// Nil emits <value><nil/></value>.
func (e *Encoder) Nil() { e.w.WriteString("<value><nil/></value>") }

// Bool emits a boolean value.
func (e *Encoder) Bool(b bool) {
	if b {
		e.w.WriteString("<value><boolean>1</boolean></value>")
	} else {
		e.w.WriteString("<value><boolean>0</boolean></value>")
	}
}

// Int emits an integer value.
func (e *Encoder) Int(i int64) {
	e.w.WriteString("<value><i8>")
	e.w.Write(strconv.AppendInt(e.scratch[:0], i, 10))
	e.w.WriteString("</i8></value>")
}

// Float emits a double value.
func (e *Encoder) Float(f float64) {
	e.w.WriteString("<value><double>")
	e.w.Write(strconv.AppendFloat(e.scratch[:0], f, 'g', -1, 64))
	e.w.WriteString("</double></value>")
}

// String emits a string value with XML escaping.
func (e *Encoder) String(s string) {
	e.w.WriteString("<value><string>")
	escapeString(e.w, s)
	e.w.WriteString("</string></value>")
}

// Time emits a dateTime.iso8601 value (UTC, second precision — the XML-RPC
// wire format's own resolution).
func (e *Encoder) Time(t time.Time) {
	e.w.WriteString("<value><dateTime.iso8601>")
	e.w.Write(t.UTC().AppendFormat(e.scratch[:0], "20060102T15:04:05"))
	e.w.WriteString("</dateTime.iso8601></value>")
}

// Bytes emits a base64 value, streaming the encoding through the scratch
// array so no intermediate string is built.
func (e *Encoder) Bytes(p []byte) {
	e.w.WriteString("<value><base64>")
	for len(p) > 0 {
		n := len(p)
		if n > 48 { // 48 source bytes -> 64 base64 bytes, no mid-stream padding
			n = 48
		}
		base64.StdEncoding.Encode(e.scratch[:], p[:n])
		e.w.Write(e.scratch[:base64.StdEncoding.EncodedLen(n)])
		p = p[n:]
	}
	e.w.WriteString("</base64></value>")
}

// BeginArray opens an array value; emit the elements, then EndArray.
func (e *Encoder) BeginArray() { e.w.WriteString("<value><array><data>") }

// EndArray closes an array opened with BeginArray.
func (e *Encoder) EndArray() { e.w.WriteString("</data></array></value>") }

// BeginStruct opens a struct value; emit members, then EndStruct.
func (e *Encoder) BeginStruct() { e.w.WriteString("<value><struct>") }

// EndStruct closes a struct opened with BeginStruct.
func (e *Encoder) EndStruct() { e.w.WriteString("</struct></value>") }

// BeginMember opens one struct member; emit exactly one value, then
// EndMember.
func (e *Encoder) BeginMember(name string) {
	e.w.WriteString("<member><name>")
	escapeString(e.w, name)
	e.w.WriteString("</name>")
}

// EndMember closes a member opened with BeginMember.
func (e *Encoder) EndMember() { e.w.WriteString("</member>") }

// Escape sequences mirroring encoding/xml.EscapeText exactly, so the
// streaming encoder's output is byte-identical to the old codec's (\r must
// be escaped or XML parsing normalizes it away; invalid runes become
// U+FFFD).
const (
	escQuot = "&#34;"
	escApos = "&#39;"
	escAmp  = "&amp;"
	escLT   = "&lt;"
	escGT   = "&gt;"
	escTab  = "&#x9;"
	escNL   = "&#xA;"
	escCR   = "&#xD;"
	escFFFD = "�"
)

// escapeString is xml.EscapeText for strings: identical output, but no
// []byte(s) conversion per call and substring runs written in one piece.
func escapeString(w encWriter, s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = escQuot
		case '\'':
			esc = escApos
		case '&':
			esc = escAmp
		case '<':
			esc = escLT
		case '>':
			esc = escGT
		case '\t':
			esc = escTab
		case '\n':
			esc = escNL
		case '\r':
			esc = escCR
		default:
			if !isInCharacterRange(r) || (r == 0xFFFD && width == 1) {
				esc = escFFFD
			} else {
				i += width
				continue
			}
		}
		w.WriteString(s[last:i])
		w.WriteString(esc)
		i += width
		last = i
	}
	w.WriteString(s[last:])
}

// isInCharacterRange reports whether r is in the XML Char production
// (mirrors encoding/xml).
func isInCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// encodeValue writes one value of the generic XML-RPC family. Payloads
// implementing ValueMarshaler encode themselves (the zero-boxing row path);
// struct member names are emitted in sorted order so documents are
// deterministic and golden-testable.
func encodeValue(e *Encoder, v interface{}) error {
	switch x := v.(type) {
	case nil:
		e.Nil()
	case ValueMarshaler:
		return x.MarshalXMLRPC(e)
	case bool:
		e.Bool(x)
	case int:
		e.Int(int64(x))
	case int64:
		e.Int(x)
	case float64:
		e.Float(x)
	case string:
		e.String(x)
	case time.Time:
		e.Time(x)
	case []byte:
		e.Bytes(x)
	case []interface{}:
		e.BeginArray()
		for _, el := range x {
			if err := encodeValue(e, el); err != nil {
				return err
			}
		}
		e.EndArray()
	case []string:
		e.BeginArray()
		for _, s := range x {
			e.String(s)
		}
		e.EndArray()
	case map[string]interface{}:
		names := make([]string, 0, len(x))
		for k := range x {
			names = append(names, k)
		}
		sort.Strings(names)
		e.BeginStruct()
		for _, k := range names {
			e.BeginMember(k)
			if err := encodeValue(e, x[k]); err != nil {
				return err
			}
			e.EndMember()
		}
		e.EndStruct()
	default:
		return fmt.Errorf("clarens: cannot encode %T in XML-RPC", v)
	}
	return nil
}

// ---- document marshalling ----

// bufPool recycles the scratch buffers behind request/response rendering so
// the steady-state wire path allocates nothing for document assembly.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledBuf bounds the capacity a buffer may retain in the pool: one
// huge result must not pin tens of megabytes behind every future call.
const maxPooledBuf = 4 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// marshalCallBuf renders a methodCall document into buf.
func marshalCallBuf(buf *bytes.Buffer, method string, args []interface{}) error {
	buf.WriteString(xml.Header)
	buf.WriteString("<methodCall><methodName>")
	e := &Encoder{w: buf}
	escapeString(buf, method)
	buf.WriteString("</methodName><params>")
	for _, a := range args {
		buf.WriteString("<param>")
		if err := encodeValue(e, a); err != nil {
			return err
		}
		buf.WriteString("</param>")
	}
	buf.WriteString("</params></methodCall>")
	return nil
}

// MarshalCall renders a methodCall document.
func MarshalCall(method string, args []interface{}) ([]byte, error) {
	buf := getBuf()
	defer putBuf(buf)
	if err := marshalCallBuf(buf, method, args); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// MarshalResponseTo streams a methodResponse document for result into w
// without materializing it: result values implementing ValueMarshaler (row
// sets, cursor chunks) are encoded cell-direct. Writers that satisfy the
// internal buffered interface (bytes.Buffer, the server's response
// streamer) are written to directly; anything else costs one bufio wrapper.
func MarshalResponseTo(w io.Writer, result interface{}) error {
	ew, flush := asEncWriter(w)
	ew.WriteString(xml.Header)
	ew.WriteString("<methodResponse><params><param>")
	if err := encodeValue(&Encoder{w: ew}, result); err != nil {
		return err
	}
	ew.WriteString("</param></params></methodResponse>")
	return flush()
}

func asEncWriter(w io.Writer) (encWriter, func() error) {
	if ew, ok := w.(encWriter); ok {
		return ew, func() error { return nil }
	}
	bw := bufio.NewWriter(w)
	return bw, bw.Flush
}

// MarshalResponse renders a methodResponse document for a result value.
func MarshalResponse(result interface{}) ([]byte, error) {
	buf := getBuf()
	defer putBuf(buf)
	if err := MarshalResponseTo(buf, result); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// MarshalFault renders a methodResponse fault document.
func MarshalFault(f *Fault) []byte {
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(xml.Header)
	buf.WriteString("<methodResponse><fault>")
	encodeValue(&Encoder{w: buf}, map[string]interface{}{
		"faultCode":   int64(f.Code),
		"faultString": f.Message,
	})
	buf.WriteString("</fault></methodResponse>")
	return append([]byte(nil), buf.Bytes()...)
}
