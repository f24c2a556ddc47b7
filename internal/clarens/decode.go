package clarens

// Streaming XML-RPC decoder: the read half of the zero-boxing wire path.
//
// The Decoder walks the document once over the byte scanner in xmlscan.go,
// producing either the generic interface{} family (Value) or, through the
// Scalar/DecodeArray/DecodeStruct primitives, letting row-aware callers
// (dataaccess) build sqlengine rows directly with no intermediate tree, no
// interface boxing per cell and no allocation per token: element names are
// compared as bytes, numbers are parsed in place, and only <string>/<name>
// text and base64 payloads are copied out.
//
// Its references are the generic-tree decoder in tree_test.go and the
// encoding/xml token walker in decode_oracle_test.go: the fuzz targets run
// them differentially. The walker deliberately mirrors the tree's
// tolerances — first matching child wins, unknown siblings are skipped,
// chardata around container children is ignored — so they accept the same
// documents.

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// maxBody bounds request and response bodies. A var so tests can lower it;
// semantically a constant (64 MiB).
var maxBody int64 = 64 << 20

// ErrTooLarge reports a request or response body exceeding the codec's
// size cap. The server maps it to a distinct "request body too large"
// fault instead of the confusing parse error truncation used to produce.
var ErrTooLarge = errors.New("clarens: message body too large")

// limitReader enforces maxBody and counts the bytes read (the count feeds
// netsim bandwidth charging). Unlike io.LimitReader it fails loudly: a
// body larger than the cap surfaces ErrTooLarge instead of a silent EOF
// mid-document.
type limitReader struct {
	r         io.Reader
	remaining int64 // maxBody+1 at start; 0 means the cap is exceeded
	read      int64
}

func newLimitReader(r io.Reader) *limitReader {
	return &limitReader{r: r, remaining: maxBody + 1}
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.remaining <= 0 {
		return 0, ErrTooLarge
	}
	if int64(len(p)) > l.remaining {
		p = p[:l.remaining]
	}
	n, err := l.r.Read(p)
	l.remaining -= int64(n)
	l.read += int64(n)
	if l.remaining <= 0 && err == nil {
		// The next read would exceed the cap; report it now so the XML
		// decoder cannot mistake the boundary for end-of-input.
		err = ErrTooLarge
	}
	return n, err
}

// Decoder walks one XML-RPC document token by token.
type Decoder struct {
	// Scanner state (xmlscan.go).
	src  io.Reader
	win  *window
	buf  []byte // win.buf[:n]: input read and not yet discarded
	r    int    // offset in buf of the next unscanned byte
	off  int64  // input offset of buf[0], for error positions
	rerr error  // why src stopped (io.EOF at the end), reported once buf drains
	err  error  // sticky scan error

	// The current token: kind plus its local name (start tags) or its
	// character data, both valid until the next scan.
	kind      tokKind
	name      []byte
	text      []byte
	closeNext bool // the last start tag was self-closing; its end is next
	peeked    bool // one-token pushback for container iteration

	// depth counts open elements; it lets the envelope walkers resume a
	// structurally sound position after a value-semantic decode error
	// (see resyncTo).
	depth int
}

// NewDecoder returns a streaming decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	w := windowPool.Get().(*window)
	return &Decoder{src: r, win: w, buf: w.buf[:0]}
}

// release hands the decoder's window back to the pool; the decoder is
// unusable afterwards. Only the envelope functions call it, once the
// document is done with: no decoded value aliases the window.
func (d *Decoder) release() {
	w := d.win
	d.win, d.buf, d.name, d.text = nil, nil, nil, nil
	putWindow(w)
}

// token returns the next structural token: a start tag, an end tag or
// character data.
func (d *Decoder) token() (tokKind, error) {
	if d.peeked {
		d.peeked = false
	} else {
		k, err := d.next()
		if err != nil {
			return 0, err
		}
		d.kind = k
	}
	switch d.kind {
	case tokStart:
		d.depth++
	case tokEnd:
		d.depth--
	}
	return d.kind, nil
}

// unread pushes the current token back; the next token() returns it.
// Valid for exactly one token, consumed before the scanner advances (so the
// name aliasing the window stays intact).
func (d *Decoder) unread() {
	d.peeked = true
	switch d.kind {
	case tokStart:
		d.depth--
	case tokEnd:
		d.depth++
	}
}

// is reports whether the current tag's local name is s.
func (d *Decoder) is(s string) bool { return string(d.name) == s }

// skip consumes the remainder of the element whose start tag was just
// read.
func (d *Decoder) skip() error {
	depth := 0
	for {
		k, err := d.next()
		if err != nil {
			return err
		}
		switch k {
		case tokStart:
			depth++
		case tokEnd:
			if depth == 0 {
				d.depth-- // the matching end tag
				return nil
			}
			depth--
		}
	}
}

// resyncTo reads tokens until the element depth drops to target,
// restoring a structurally sound position after a value-semantic decode
// error left the walk mid-element. A tokenizer error ends the recovery;
// the broken stream surfaces it again on the caller's next read.
func (d *Decoder) resyncTo(target int) {
	for d.depth > target {
		if _, err := d.token(); err != nil {
			return
		}
	}
}

// rootStart scans the prolog for the document's root element; leading
// character data is ignored, as xml.Unmarshal does.
func (d *Decoder) rootStart() error {
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		if k == tokStart {
			return nil
		}
	}
}

// textString accumulates the element's direct character data through its
// end tag, skipping nested elements (whose own chardata belonged to them in
// the tree representation as well).
func (d *Decoder) textString() (string, error) {
	b, err := d.textScratch()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// textScratch is text into the decoder's reusable scratch: the returned
// slice is valid only until the next decoder call. It is the allocation-
// free path for scalar payloads that are parsed, not retained (numbers,
// booleans, timestamps, base64).
func (d *Decoder) textScratch() ([]byte, error) {
	acc := d.win.acc[:0]
	for {
		k, err := d.token()
		if err != nil {
			return nil, err
		}
		switch k {
		case tokText:
			acc = append(acc, d.text...)
		case tokStart:
			if err := d.skip(); err != nil {
				return nil, err
			}
		case tokEnd:
			d.win.acc = acc
			return acc, nil
		}
	}
}

// tempString gives a string view of b for immediate parsing only; the
// bytes alias the decoder's scratch and must not be retained.
func tempString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ---- generic value decoding ----

// enterValue consumes tokens until the next <value> start tag, ignoring
// surrounding character data.
func (d *Decoder) enterValue() error {
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		switch k {
		case tokStart:
			if !d.is("value") {
				return fmt.Errorf("clarens: expected <value>, got <%s>", d.name)
			}
			return nil
		case tokEnd:
			return fmt.Errorf("clarens: expected <value>")
		}
	}
}

// SkipValue consumes one <value> element without decoding it.
func (d *Decoder) SkipValue() error {
	if err := d.enterValue(); err != nil {
		return err
	}
	return d.skip()
}

// valueBody decodes the content after a consumed <value> start tag through
// its end tag. Bare text is a string per the XML-RPC spec; the first child
// element determines the type and later siblings are ignored (the tree
// codec decoded Children[0] only).
func (d *Decoder) valueBody() (interface{}, error) {
	var sc Scalar
	if err := d.scalarBody(&sc, true); err != nil {
		return nil, err
	}
	if sc.Kind != scalarContainer {
		return sc.generic(), nil
	}
	var v interface{}
	var err error
	if d.is("array") {
		v, err = d.arrayBody()
	} else {
		v, err = d.structBody()
	}
	if err != nil {
		return nil, err
	}
	return v, d.skipRest()
}

// skipRest discards everything through the end tag of the current element
// (the enclosing </value> after a typed payload, the </param> after a
// result decoder's value).
func (d *Decoder) skipRest() error {
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		switch k {
		case tokEnd:
			return nil
		case tokStart:
			if err := d.skip(); err != nil {
				return err
			}
		}
	}
}

// typedScalar decodes one scalar type element whose start tag was just
// consumed directly into the Scalar union *sc — the cell path stays
// allocation-free apart from the payload itself (no interface boxing).
func (d *Decoder) typedScalar(sc *Scalar) error {
	var kind ScalarKind
	switch tempString(d.name) {
	case "nil":
		*sc = Scalar{}
		return d.skip()
	case "string":
		s, err := d.textString()
		*sc = Scalar{Kind: ScalarString, Str: s}
		return err
	case "boolean":
		kind = ScalarBool
	case "i4", "int", "i8":
		kind = ScalarInt
	case "double":
		kind = ScalarFloat
	case "dateTime.iso8601":
		kind = ScalarTime
	case "base64":
		kind = ScalarBytes
	default:
		return fmt.Errorf("clarens: unknown XML-RPC type <%s>", d.name)
	}
	b, err := d.textScratch()
	if err != nil {
		return err
	}
	t := bytes.TrimSpace(b)
	switch kind {
	case ScalarBool:
		*sc = Scalar{Kind: ScalarBool, Bool: string(t) == "1"}
	case ScalarInt:
		v, perr := strconv.ParseInt(tempString(t), 10, 64)
		if perr != nil {
			return fmt.Errorf("clarens: bad integer %q", string(b))
		}
		*sc = Scalar{Kind: ScalarInt, Int: v}
	case ScalarFloat:
		v, perr := strconv.ParseFloat(tempString(t), 64)
		if perr != nil {
			return fmt.Errorf("clarens: bad double %q", string(b))
		}
		*sc = Scalar{Kind: ScalarFloat, Float: v}
	case ScalarTime:
		v, perr := time.Parse("20060102T15:04:05", tempString(t))
		if perr != nil {
			return fmt.Errorf("clarens: bad dateTime %q", string(b))
		}
		*sc = Scalar{Kind: ScalarTime, Time: v.UTC()}
	case ScalarBytes:
		dst := make([]byte, base64.StdEncoding.DecodedLen(len(t)))
		n, perr := base64.StdEncoding.Decode(dst, t)
		if perr != nil {
			return fmt.Errorf("clarens: bad base64: %v", perr)
		}
		*sc = Scalar{Kind: ScalarBytes, Bytes: dst[:n]}
	}
	return nil
}

// arrayBody decodes <array> content after its start tag: the <value>
// children of the first <data> child (later <data> siblings are ignored,
// as the tree codec did).
func (d *Decoder) arrayBody() ([]interface{}, error) {
	out := []interface{}{}
	err := d.dataValues(func() error {
		v, err := d.valueBody()
		if err != nil {
			return err
		}
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dataValues walks <array> content after its start tag through </array>,
// calling each with the decoder just past the start tag of every <value>
// child of the first <data> child.
func (d *Decoder) dataValues(each func() error) error {
	seenData := false
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		switch k {
		case tokEnd: // </array>
			return nil
		case tokStart:
			if !d.is("data") || seenData {
				if err := d.skip(); err != nil {
					return err
				}
				continue
			}
			seenData = true
		data:
			for {
				k, err := d.token()
				if err != nil {
					return err
				}
				switch k {
				case tokEnd: // </data>
					break data
				case tokStart:
					if !d.is("value") {
						if err := d.skip(); err != nil {
							return err
						}
						continue
					}
					if err := each(); err != nil {
						return err
					}
				}
			}
		}
	}
}

// structBody decodes <struct> content after its start tag. Within one
// member the first <name> and the first <value> win, in either order (the
// tree codec searched children by name); a member missing either is a
// protocol error.
func (d *Decoder) structBody() (map[string]interface{}, error) {
	out := make(map[string]interface{})
	for {
		k, err := d.token()
		if err != nil {
			return nil, err
		}
		switch k {
		case tokEnd: // </struct>
			return out, nil
		case tokStart:
			if !d.is("member") {
				if err := d.skip(); err != nil {
					return nil, err
				}
				continue
			}
			var name string
			var val interface{}
			haveName, haveVal := false, false
		member:
			for {
				k, err := d.token()
				if err != nil {
					return nil, err
				}
				switch k {
				case tokEnd: // </member>
					break member
				case tokStart:
					switch {
					case d.is("name") && !haveName:
						name, err = d.textString()
						haveName = true
					case d.is("value") && !haveVal:
						val, err = d.valueBody()
						haveVal = true
					default:
						err = d.skip()
					}
					if err != nil {
						return nil, err
					}
				}
			}
			if !haveName || !haveVal {
				return nil, fmt.Errorf("clarens: malformed struct member")
			}
			out[name] = val
		}
	}
}

// ---- row-aware primitives (used by dataaccess's zero-boxing decoders) ----

// ScalarKind tags a decoded Scalar.
type ScalarKind uint8

// The scalar kinds of the XML-RPC value family.
const (
	ScalarNil ScalarKind = iota
	ScalarBool
	ScalarInt
	ScalarFloat
	ScalarString
	ScalarTime
	ScalarBytes

	// scalarContainer is scalarBody's internal marker for a <value>
	// holding an <array> or <struct>, left positioned after its start tag.
	scalarContainer
)

// Scalar is one decoded scalar cell: a tagged union passed by value, so
// row decoders move cells from the wire into their own representation
// without interface boxing.
type Scalar struct {
	Kind  ScalarKind
	Bool  bool
	Int   int64
	Float float64
	Str   string
	Time  time.Time
	Bytes []byte
}

// Scalar decodes one <value> holding a scalar; arrays and structs are
// errors. Bare text is a string.
func (d *Decoder) Scalar() (sc Scalar, err error) {
	if err = d.enterValue(); err == nil {
		err = d.scalarBody(&sc, false)
	}
	return sc, err
}

// scalarBody decodes into *sc the content after a consumed <value> start
// tag through its end tag when it is bare text or a scalar type element.
// An <array> or <struct> child is an error unless containers is set, when
// it yields the scalarContainer marker with the start tag consumed.
func (d *Decoder) scalarBody(sc *Scalar, containers bool) error {
	acc := d.win.acc[:0]
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		switch k {
		case tokText:
			acc = append(acc, d.text...)
		case tokEnd:
			d.win.acc = acc
			*sc = Scalar{Kind: ScalarString, Str: string(acc)}
			return nil
		case tokStart:
			d.win.acc = acc
			switch tempString(d.name) {
			case "array", "struct":
				if containers {
					sc.Kind = scalarContainer
					return nil
				}
				return fmt.Errorf("clarens: expected scalar value, got <%s>", d.name)
			}
			if err := d.typedScalar(sc); err != nil {
				return err
			}
			return d.skipRest()
		}
	}
}

// generic boxes a Scalar into the interface{} value family (the tree-
// compatible representation the generic decode path produces).
func (sc Scalar) generic() interface{} {
	switch sc.Kind {
	case ScalarBool:
		return sc.Bool
	case ScalarInt:
		return sc.Int
	case ScalarFloat:
		return sc.Float
	case ScalarString:
		return sc.Str
	case ScalarTime:
		return sc.Time
	case ScalarBytes:
		return sc.Bytes
	}
	return nil
}

// DecodeArray consumes one <value><array> element, invoking elem once per
// array element; elem must consume exactly one value via Value, Scalar,
// SkipValue or a nested DecodeArray/DecodeStruct.
func (d *Decoder) DecodeArray(elem func(d *Decoder) error) error {
	if err := d.enterValue(); err != nil {
		return err
	}
	if err := d.typedStart(); err != nil {
		return err
	}
	if !d.is("array") {
		return fmt.Errorf("clarens: expected <array>, got <%s>", d.name)
	}
	if err := d.dataValues(func() error {
		d.unread()
		return elem(d)
	}); err != nil {
		return err
	}
	return d.skipRest()
}

// DecodeStruct consumes one <value><struct> element, invoking member for
// each member with the decoder positioned at that member's value; member
// must consume exactly one value (SkipValue for members it does not want).
// Members must carry <name> before <value> — every known XML-RPC
// implementation emits them in that order.
func (d *Decoder) DecodeStruct(member func(name string, d *Decoder) error) error {
	if err := d.enterValue(); err != nil {
		return err
	}
	if err := d.typedStart(); err != nil {
		return err
	}
	if !d.is("struct") {
		return fmt.Errorf("clarens: expected <struct>, got <%s>", d.name)
	}
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		switch k {
		case tokEnd: // </struct>
			return d.skipRest()
		case tokStart:
			if !d.is("member") {
				if err := d.skip(); err != nil {
					return err
				}
				continue
			}
			var name string
			haveName, haveVal := false, false
		member:
			for {
				k, err := d.token()
				if err != nil {
					return err
				}
				switch k {
				case tokEnd: // </member>
					break member
				case tokStart:
					switch {
					case d.is("name") && !haveName:
						name, err = d.textString()
						haveName = true
					case d.is("value") && !haveVal:
						if !haveName {
							return fmt.Errorf("clarens: struct member value before name")
						}
						d.unread()
						err = member(name, d)
						haveVal = true
					default:
						err = d.skip()
					}
					if err != nil {
						return err
					}
				}
			}
			if !haveName || !haveVal {
				return fmt.Errorf("clarens: malformed struct member")
			}
		}
	}
}

// typedStart consumes through the first child element start tag inside a
// consumed <value> start.
func (d *Decoder) typedStart() error {
	for {
		k, err := d.token()
		if err != nil {
			return err
		}
		switch k {
		case tokStart:
			return nil
		case tokEnd:
			return fmt.Errorf("clarens: empty value where a typed value was expected")
		}
	}
}

// ---- document envelopes ----

// unmarshalCallStream parses a methodCall document from r.
func unmarshalCallStream(r io.Reader) (string, []interface{}, error) {
	d := NewDecoder(r)
	defer d.release()
	if err := d.rootStart(); err != nil {
		return "", nil, fmt.Errorf("clarens: parse call: %w", err)
	}
	if !d.is("methodCall") {
		return "", nil, fmt.Errorf("clarens: expected <methodCall>, got <%s>", d.name)
	}
	var method string
	var args []interface{}
	haveMethod, seenParams := false, false
	for {
		k, err := d.token()
		if err != nil {
			return "", nil, err
		}
		switch k {
		case tokEnd: // </methodCall>
			if !haveMethod {
				return "", nil, fmt.Errorf("clarens: missing <methodName>")
			}
			return method, args, nil
		case tokStart:
			switch {
			case d.is("methodName") && !haveMethod:
				s, err := d.textString()
				if err != nil {
					return "", nil, err
				}
				method = strings.TrimSpace(s)
				haveMethod = true
			case d.is("params") && !seenParams:
				seenParams = true
			params:
				for {
					k, err := d.token()
					if err != nil {
						return "", nil, err
					}
					switch k {
					case tokEnd: // </params>
						break params
					case tokStart:
						if !d.is("param") {
							if err := d.skip(); err != nil {
								return "", nil, err
							}
							continue
						}
						v, ok, err := d.firstValueIn()
						if err != nil {
							return "", nil, err
						}
						if !ok {
							return "", nil, fmt.Errorf("clarens: param without value")
						}
						args = append(args, v)
					}
				}
			default:
				if err := d.skip(); err != nil {
					return "", nil, err
				}
			}
		}
	}
}

// firstValueIn decodes the first <value> child of the element whose start
// tag was just consumed (a <param> or <fault>), skipping other children
// through the element's end; ok is false when no value child exists. On a
// value decode error the walk is resynchronized past the element's end
// tag, so the caller may keep scanning siblings (a fault following a
// malformed params still wins, as it did under the tree codec).
func (d *Decoder) firstValueIn() (interface{}, bool, error) {
	entry := d.depth
	var v interface{}
	have := false
	for {
		k, err := d.token()
		if err != nil {
			return nil, false, err
		}
		switch k {
		case tokEnd:
			return v, have, nil
		case tokStart:
			if !d.is("value") || have {
				if err := d.skip(); err != nil {
					return nil, false, err
				}
				continue
			}
			v, err = d.valueBody()
			if err != nil {
				d.resyncTo(entry - 1)
				return nil, false, err
			}
			have = true
		}
	}
}

// decodeResponseStream parses a methodResponse document from r. When
// result is non-nil it decodes the result value (the zero-boxing row
// path); otherwise the generic family is produced. Fault documents return
// a *Fault error whether they precede or follow a params element, exactly
// as the tree codec resolved them.
func decodeResponseStream(r io.Reader, result func(*Decoder) (interface{}, error)) (interface{}, error) {
	d := NewDecoder(r)
	defer d.release()
	if err := d.rootStart(); err != nil {
		return nil, fmt.Errorf("clarens: parse response: %w", err)
	}
	if !d.is("methodResponse") {
		return nil, fmt.Errorf("clarens: expected <methodResponse>, got <%s>", d.name)
	}
	var res interface{}
	var resErr, faultErr error
	haveRes, haveFault, seenParams := false, false, false
	for {
		k, err := d.token()
		if err != nil {
			return nil, err
		}
		switch k {
		case tokEnd: // </methodResponse>
			// A fault wins over any params result; the tree codec checked
			// for it before looking at params at all. Returning only once
			// the root element closes keeps truncated documents parse
			// errors, as they were under the tree.
			if haveFault {
				return nil, faultErr
			}
			if haveRes {
				return res, resErr
			}
			return nil, nil
		case tokStart:
			switch {
			case d.is("fault") && !haveFault:
				haveFault = true
				v, ok, err := d.firstValueIn()
				if err != nil {
					return nil, err
				}
				if !ok {
					faultErr = &Fault{Code: FaultParse, Message: "malformed fault"}
				} else {
					faultErr = faultFromValue(v)
				}
			case d.is("params") && !seenParams:
				seenParams = true
				v, verr, found, err := d.firstParamResult(result)
				if err != nil {
					return nil, err
				}
				if found {
					res, resErr, haveRes = v, verr, true
				}
			default:
				if err := d.skip(); err != nil {
					return nil, err
				}
			}
		}
	}
}

// firstParamResult decodes the first <param>'s value inside a consumed
// <params> start tag, skipping the rest. A decode error is returned as
// verr (not err) so a fault element following the params can still win, as
// it would have in the tree representation; tokenizer-level errors abort
// via err.
func (d *Decoder) firstParamResult(result func(*Decoder) (interface{}, error)) (v interface{}, verr error, found bool, err error) {
	for {
		k, terr := d.token()
		if terr != nil {
			return nil, nil, false, terr
		}
		switch k {
		case tokEnd: // </params>
			return v, verr, found, nil
		case tokStart:
			if !d.is("param") || found {
				if err := d.skip(); err != nil {
					return nil, nil, false, err
				}
				continue
			}
			found = true
			if result == nil {
				var ok bool
				v, ok, verr = d.firstValueIn()
				if verr == nil && !ok {
					verr = fmt.Errorf("clarens: param without value")
				}
				continue // firstValueIn consumed through </param>
			}
			v, verr = result(d)
			if verr != nil {
				// A failed custom decoder may leave the param element
				// partially consumed; structural resynchronization is
				// impossible, so the error is the document's outcome.
				return nil, nil, true, verr
			}
			if err := d.skipRest(); err != nil {
				return nil, nil, false, err
			}
		}
	}
}

// faultFromValue builds the *Fault error from a decoded fault value.
func faultFromValue(v interface{}) *Fault {
	m, _ := v.(map[string]interface{})
	fault := &Fault{Code: FaultApplication, Message: "unknown fault"}
	if c, ok := m["faultCode"].(int64); ok {
		fault.Code = int(c)
	}
	if s, ok := m["faultString"].(string); ok {
		fault.Message = s
	}
	return fault
}

// DecodeResponse parses a methodResponse document from r. A non-nil
// result decoder receives the Decoder positioned at the result value and
// must consume exactly one value — the hook dataaccess uses to decode row
// payloads straight into engine rows.
func DecodeResponse(r io.Reader, result func(*Decoder) (interface{}, error)) (interface{}, error) {
	return decodeResponseStream(r, result)
}
