package clarens

// The encoding/xml token walker the byte-scanning Decoder (decode.go)
// replaced, kept verbatim apart from its names as the exact oracle for the
// row-aware primitives: FuzzDecodeRows decodes row documents through both
// and requires equal cells or a failure from each. The tree decoder in
// tree_test.go remains the oracle for the generic value family.

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// tokenDecoder walks one XML-RPC document token by token.
type tokenDecoder struct {
	x      *xml.Decoder
	peeked xml.Token // one-token pushback for container iteration
	tbuf   []byte    // scratch for transient scalar text
	// depth counts open elements; it lets the envelope walkers resume a
	// structurally sound position after a value-semantic decode error
	// (see resyncTo).
	depth int
}

// newTokenDecoder returns a streaming decoder reading from r.
func newTokenDecoder(r io.Reader) *tokenDecoder {
	return &tokenDecoder{x: xml.NewDecoder(r)}
}

// token returns the next structural token, skipping comments, directives
// and processing instructions (the tree parser ignored them too).
func (d *tokenDecoder) token() (xml.Token, error) {
	if d.peeked != nil {
		t := d.peeked
		d.peeked = nil
		d.applyDepth(t)
		return t, nil
	}
	for {
		tok, err := d.x.Token()
		if err != nil {
			return nil, err
		}
		switch tok.(type) {
		case xml.Comment, xml.Directive, xml.ProcInst:
			continue
		}
		d.applyDepth(tok)
		return tok, nil
	}
}

func (d *tokenDecoder) applyDepth(tok xml.Token) {
	switch tok.(type) {
	case xml.StartElement:
		d.depth++
	case xml.EndElement:
		d.depth--
	}
}

// unread pushes tok back; the next token() returns it. Valid for exactly
// one token, consumed before the underlying decoder advances (so CharData
// aliasing the decoder's buffer stays intact).
func (d *tokenDecoder) unread(tok xml.Token) {
	d.peeked = tok
	switch tok.(type) {
	case xml.StartElement:
		d.depth--
	case xml.EndElement:
		d.depth++
	}
}

// skip consumes the remainder of the element whose start tag was just
// read.
func (d *tokenDecoder) skip() error {
	err := d.x.Skip()
	if err == nil {
		d.depth-- // Skip consumed the matching end tag
	}
	return err
}

// resyncTo reads tokens until the element depth drops to target,
// restoring a structurally sound position after a value-semantic decode
// error left the walk mid-element. A tokenizer error ends the recovery;
// the broken stream surfaces it again on the caller's next read.
func (d *tokenDecoder) resyncTo(target int) {
	for d.depth > target {
		if _, err := d.token(); err != nil {
			return
		}
	}
}

// rootStart scans the prolog for the document's root element.
func (d *tokenDecoder) rootStart() (xml.StartElement, error) {
	for {
		tok, err := d.token()
		if err != nil {
			return xml.StartElement{}, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return t, nil
		case xml.CharData:
			// Leading character data is ignored, as xml.Unmarshal does.
		}
	}
}

// text accumulates the element's direct character data through its end
// tag, skipping nested elements (whose own chardata belonged to them in
// the tree representation as well).
func (d *tokenDecoder) text() (string, error) {
	var s string
	var buf []byte
	for {
		tok, err := d.token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.CharData:
			if s == "" && buf == nil {
				s = string(t) // common case: a single chunk
			} else {
				if buf == nil {
					buf = append(buf, s...)
					s = ""
				}
				buf = append(buf, t...)
			}
		case xml.StartElement:
			if err := d.skip(); err != nil {
				return "", err
			}
		case xml.EndElement:
			if buf != nil {
				return string(buf), nil
			}
			return s, nil
		}
	}
}

// textScratch is text into the decoder's reusable scratch: the returned
// slice is valid only until the next decoder call. It is the allocation-
// free path for scalar payloads that are parsed, not retained (numbers,
// booleans, timestamps, base64).
func (d *tokenDecoder) textScratch() ([]byte, error) {
	d.tbuf = d.tbuf[:0]
	for {
		tok, err := d.token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			d.tbuf = append(d.tbuf, t...)
		case xml.StartElement:
			if err := d.skip(); err != nil {
				return nil, err
			}
		case xml.EndElement:
			return d.tbuf, nil
		}
	}
}

// ---- generic value decoding ----

// enterValue consumes tokens until the next <value> start tag, ignoring
// surrounding character data.
func (d *tokenDecoder) enterValue() error {
	for {
		tok, err := d.token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.StartElement:
			if t.Name.Local != "value" {
				return fmt.Errorf("clarens: expected <value>, got <%s>", t.Name.Local)
			}
			return nil
		case xml.EndElement:
			return fmt.Errorf("clarens: expected <value>")
		}
	}
}

// Value decodes one generic <value> element into the XML-RPC interface{}
// family (the shape third-party payloads and the tree codec produce).
func (d *tokenDecoder) Value() (interface{}, error) {
	if err := d.enterValue(); err != nil {
		return nil, err
	}
	return d.valueBody()
}

// SkipValue consumes one <value> element without decoding it.
func (d *tokenDecoder) SkipValue() error {
	if err := d.enterValue(); err != nil {
		return err
	}
	return d.skip()
}

// valueBody decodes the content after a consumed <value> start tag through
// its end tag. Bare text is a string per the XML-RPC spec; the first child
// element determines the type and later siblings are ignored (the tree
// codec decoded Children[0] only).
func (d *tokenDecoder) valueBody() (interface{}, error) {
	var s string
	var buf []byte
	for {
		tok, err := d.token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			if s == "" && buf == nil {
				s = string(t)
			} else {
				if buf == nil {
					buf = append(buf, s...)
					s = ""
				}
				buf = append(buf, t...)
			}
		case xml.EndElement:
			if buf != nil {
				return string(buf), nil
			}
			return s, nil
		case xml.StartElement:
			v, err := d.typedValue(t)
			if err != nil {
				return nil, err
			}
			if err := d.finishValue(); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
}

// finishValue discards everything up to the enclosing </value> after the
// typed payload has been decoded.
func (d *tokenDecoder) finishValue() error {
	for {
		tok, err := d.token()
		if err != nil {
			return err
		}
		switch tok.(type) {
		case xml.EndElement:
			return nil
		case xml.StartElement:
			if err := d.skip(); err != nil {
				return err
			}
		}
	}
}

// typedValue decodes one type element (<i8>, <string>, <array>, ...) whose
// start tag was just consumed, producing the generic value family.
func (d *tokenDecoder) typedValue(start xml.StartElement) (interface{}, error) {
	switch start.Name.Local {
	case "array":
		return d.arrayBody()
	case "struct":
		return d.structBody()
	}
	sc, err := d.typedScalar(start)
	if err != nil {
		return nil, err
	}
	return sc.generic(), nil
}

// typedScalar decodes one scalar type element directly into the Scalar
// union — the cell path stays allocation-free apart from the payload
// itself (no interface boxing).
func (d *tokenDecoder) typedScalar(start xml.StartElement) (Scalar, error) {
	switch start.Name.Local {
	case "nil":
		return Scalar{}, d.skip()
	case "boolean":
		b, err := d.textScratch()
		if err != nil {
			return Scalar{}, err
		}
		return Scalar{Kind: ScalarBool, Bool: string(bytes.TrimSpace(b)) == "1"}, nil
	case "i4", "int", "i8":
		b, err := d.textScratch()
		if err != nil {
			return Scalar{}, err
		}
		v, perr := strconv.ParseInt(tempString(bytes.TrimSpace(b)), 10, 64)
		if perr != nil {
			return Scalar{}, fmt.Errorf("clarens: bad integer %q", string(b))
		}
		return Scalar{Kind: ScalarInt, Int: v}, nil
	case "double":
		b, err := d.textScratch()
		if err != nil {
			return Scalar{}, err
		}
		v, perr := strconv.ParseFloat(tempString(bytes.TrimSpace(b)), 64)
		if perr != nil {
			return Scalar{}, fmt.Errorf("clarens: bad double %q", string(b))
		}
		return Scalar{Kind: ScalarFloat, Float: v}, nil
	case "string":
		s, err := d.text()
		if err != nil {
			return Scalar{}, err
		}
		return Scalar{Kind: ScalarString, Str: s}, nil
	case "dateTime.iso8601":
		b, err := d.textScratch()
		if err != nil {
			return Scalar{}, err
		}
		v, perr := time.Parse("20060102T15:04:05", tempString(bytes.TrimSpace(b)))
		if perr != nil {
			return Scalar{}, fmt.Errorf("clarens: bad dateTime %q", string(b))
		}
		return Scalar{Kind: ScalarTime, Time: v.UTC()}, nil
	case "base64":
		b, err := d.textScratch()
		if err != nil {
			return Scalar{}, err
		}
		src := bytes.TrimSpace(b)
		dst := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
		n, perr := base64.StdEncoding.Decode(dst, src)
		if perr != nil {
			return Scalar{}, fmt.Errorf("clarens: bad base64: %v", perr)
		}
		return Scalar{Kind: ScalarBytes, Bytes: dst[:n]}, nil
	}
	return Scalar{}, fmt.Errorf("clarens: unknown XML-RPC type <%s>", start.Name.Local)
}

// arrayBody decodes <array> content after its start tag: the <value>
// children of the first <data> child (later <data> siblings are ignored,
// as the tree codec did).
func (d *tokenDecoder) arrayBody() ([]interface{}, error) {
	out := []interface{}{}
	seenData := false
	for {
		tok, err := d.token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement: // </array>
			return out, nil
		case xml.StartElement:
			if t.Name.Local != "data" || seenData {
				if err := d.skip(); err != nil {
					return nil, err
				}
				continue
			}
			seenData = true
		data:
			for {
				tok, err := d.token()
				if err != nil {
					return nil, err
				}
				switch t := tok.(type) {
				case xml.CharData:
				case xml.EndElement: // </data>
					break data
				case xml.StartElement:
					if t.Name.Local != "value" {
						if err := d.skip(); err != nil {
							return nil, err
						}
						continue
					}
					v, err := d.valueBody()
					if err != nil {
						return nil, err
					}
					out = append(out, v)
				}
			}
		}
	}
}

// structBody decodes <struct> content after its start tag. Within one
// member the first <name> and the first <value> win, in either order (the
// tree codec searched children by name); a member missing either is a
// protocol error.
func (d *tokenDecoder) structBody() (map[string]interface{}, error) {
	out := make(map[string]interface{})
	for {
		tok, err := d.token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement: // </struct>
			return out, nil
		case xml.StartElement:
			if t.Name.Local != "member" {
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
				tok, err := d.token()
				if err != nil {
					return nil, err
				}
				switch t := tok.(type) {
				case xml.CharData:
				case xml.EndElement: // </member>
					break member
				case xml.StartElement:
					switch {
					case t.Name.Local == "name" && !haveName:
						name, err = d.text()
						haveName = true
					case t.Name.Local == "value" && !haveVal:
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

// Scalar decodes one <value> holding a scalar; arrays and structs are
// errors. Bare text is a string.
func (d *tokenDecoder) Scalar() (Scalar, error) {
	if err := d.enterValue(); err != nil {
		return Scalar{}, err
	}
	var s string
	var buf []byte
	for {
		tok, err := d.token()
		if err != nil {
			return Scalar{}, err
		}
		switch t := tok.(type) {
		case xml.CharData:
			if s == "" && buf == nil {
				s = string(t)
			} else {
				if buf == nil {
					buf = append(buf, s...)
					s = ""
				}
				buf = append(buf, t...)
			}
		case xml.EndElement:
			if buf != nil {
				return Scalar{Kind: ScalarString, Str: string(buf)}, nil
			}
			return Scalar{Kind: ScalarString, Str: s}, nil
		case xml.StartElement:
			if t.Name.Local == "array" || t.Name.Local == "struct" {
				return Scalar{}, fmt.Errorf("clarens: expected scalar value, got <%s>", t.Name.Local)
			}
			sc, err := d.typedScalar(t)
			if err != nil {
				return Scalar{}, err
			}
			if err := d.finishValue(); err != nil {
				return Scalar{}, err
			}
			return sc, nil
		}
	}
}

// DecodeArray consumes one <value><array> element, invoking elem once per
// array element; elem must consume exactly one value via Value, Scalar,
// SkipValue or a nested DecodeArray/DecodeStruct.
func (d *tokenDecoder) DecodeArray(elem func(d *tokenDecoder) error) error {
	if err := d.enterValue(); err != nil {
		return err
	}
	start, err := d.typedStart()
	if err != nil {
		return err
	}
	if start.Name.Local != "array" {
		return fmt.Errorf("clarens: expected <array>, got <%s>", start.Name.Local)
	}
	seenData := false
	for {
		tok, err := d.token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement: // </array>
			return d.finishValue()
		case xml.StartElement:
			if t.Name.Local != "data" || seenData {
				if err := d.skip(); err != nil {
					return err
				}
				continue
			}
			seenData = true
		data:
			for {
				tok, err := d.token()
				if err != nil {
					return err
				}
				switch t := tok.(type) {
				case xml.CharData:
				case xml.EndElement: // </data>
					break data
				case xml.StartElement:
					if t.Name.Local != "value" {
						if err := d.skip(); err != nil {
							return err
						}
						continue
					}
					d.unread(t)
					if err := elem(d); err != nil {
						return err
					}
				}
			}
		}
	}
}

// DecodeStruct consumes one <value><struct> element, invoking member for
// each member with the decoder positioned at that member's value; member
// must consume exactly one value (SkipValue for members it does not want).
// Members must carry <name> before <value> — every known XML-RPC
// implementation emits them in that order.
func (d *tokenDecoder) DecodeStruct(member func(name string, d *tokenDecoder) error) error {
	if err := d.enterValue(); err != nil {
		return err
	}
	start, err := d.typedStart()
	if err != nil {
		return err
	}
	if start.Name.Local != "struct" {
		return fmt.Errorf("clarens: expected <struct>, got <%s>", start.Name.Local)
	}
	for {
		tok, err := d.token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement: // </struct>
			return d.finishValue()
		case xml.StartElement:
			if t.Name.Local != "member" {
				if err := d.skip(); err != nil {
					return err
				}
				continue
			}
			var name string
			haveName, haveVal := false, false
		member:
			for {
				tok, err := d.token()
				if err != nil {
					return err
				}
				switch t := tok.(type) {
				case xml.CharData:
				case xml.EndElement: // </member>
					break member
				case xml.StartElement:
					switch {
					case t.Name.Local == "name" && !haveName:
						name, err = d.text()
						haveName = true
					case t.Name.Local == "value" && !haveVal:
						if !haveName {
							return fmt.Errorf("clarens: struct member value before name")
						}
						d.unread(t)
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

// typedStart returns the first child element start tag inside a consumed
// <value> start.
func (d *tokenDecoder) typedStart() (xml.StartElement, error) {
	for {
		tok, err := d.token()
		if err != nil {
			return xml.StartElement{}, err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.StartElement:
			return t, nil
		case xml.EndElement:
			return xml.StartElement{}, fmt.Errorf("clarens: empty value where a typed value was expected")
		}
	}
}

// ---- document envelopes ----

// unmarshalCallTokens parses a methodCall document from r.
func unmarshalCallTokens(r io.Reader) (string, []interface{}, error) {
	d := newTokenDecoder(r)
	root, err := d.rootStart()
	if err != nil {
		return "", nil, fmt.Errorf("clarens: parse call: %w", err)
	}
	if root.Name.Local != "methodCall" {
		return "", nil, fmt.Errorf("clarens: expected <methodCall>, got <%s>", root.Name.Local)
	}
	var method string
	var args []interface{}
	haveMethod, seenParams := false, false
	for {
		tok, err := d.token()
		if err != nil {
			return "", nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement: // </methodCall>
			if !haveMethod {
				return "", nil, fmt.Errorf("clarens: missing <methodName>")
			}
			return method, args, nil
		case xml.StartElement:
			switch {
			case t.Name.Local == "methodName" && !haveMethod:
				s, err := d.text()
				if err != nil {
					return "", nil, err
				}
				method = strings.TrimSpace(s)
				haveMethod = true
			case t.Name.Local == "params" && !seenParams:
				seenParams = true
			params:
				for {
					tok, err := d.token()
					if err != nil {
						return "", nil, err
					}
					switch t := tok.(type) {
					case xml.CharData:
					case xml.EndElement: // </params>
						break params
					case xml.StartElement:
						if t.Name.Local != "param" {
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
func (d *tokenDecoder) firstValueIn() (interface{}, bool, error) {
	entry := d.depth
	var v interface{}
	have := false
	for {
		tok, err := d.token()
		if err != nil {
			return nil, false, err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement:
			return v, have, nil
		case xml.StartElement:
			if t.Name.Local != "value" || have {
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

// decodeResponseTokens parses a methodResponse document from r. When
// result is non-nil it decodes the result value (the zero-boxing row
// path); otherwise the generic family is produced. Fault documents return
// a *Fault error whether they precede or follow a params element, exactly
// as the tree codec resolved them.
func decodeResponseTokens(r io.Reader, result func(*tokenDecoder) (interface{}, error)) (interface{}, error) {
	d := newTokenDecoder(r)
	root, err := d.rootStart()
	if err != nil {
		return nil, fmt.Errorf("clarens: parse response: %w", err)
	}
	if root.Name.Local != "methodResponse" {
		return nil, fmt.Errorf("clarens: expected <methodResponse>, got <%s>", root.Name.Local)
	}
	var res interface{}
	var resErr, faultErr error
	haveRes, haveFault, seenParams := false, false, false
	for {
		tok, err := d.token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement: // </methodResponse>
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
		case xml.StartElement:
			switch {
			case t.Name.Local == "fault" && !haveFault:
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
			case t.Name.Local == "params" && !seenParams:
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
func (d *tokenDecoder) firstParamResult(result func(*tokenDecoder) (interface{}, error)) (v interface{}, verr error, found bool, err error) {
	for {
		tok, terr := d.token()
		if terr != nil {
			return nil, nil, false, terr
		}
		switch t := tok.(type) {
		case xml.CharData:
		case xml.EndElement: // </params>
			return v, verr, found, nil
		case xml.StartElement:
			if t.Name.Local != "param" || found {
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

// skipRest discards tokens through the end of the current element (used
// after a custom decoder consumed the param's value).
func (d *tokenDecoder) skipRest() error {
	for {
		tok, err := d.token()
		if err != nil {
			return err
		}
		switch tok.(type) {
		case xml.EndElement:
			return nil
		case xml.StartElement:
			if err := d.skip(); err != nil {
				return err
			}
		}
	}
}
