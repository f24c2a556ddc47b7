package clarens

// Byte scanner under Decoder: the XML tokenizer, specialised to what an
// XML-RPC walk needs (start tags, end tags, character data) and ported from
// encoding/xml's Decoder.Token so it accepts exactly the documents
// encoding/xml accepts in its default strict mode:
//
//   - prolog and processing instructions (an <?xml?> declaration must name
//     version 1.0 and a UTF-8 encoding), comments, <!DOCTYPE ...> and other
//     directives are validated and skipped;
//   - CDATA sections are character data;
//   - attributes are validated (quoted values, entities) and ignored;
//   - "prefix:local" names resolve to local, and every end tag must match
//     its start tag byte for byte;
//   - the five predefined entities and character references in the XML Char
//     range are expanded; every other '&' is an error, as are invalid UTF-8
//     and characters outside the Char production.
//
// The scanner reads a window of the input (pooled, refilled as tokens are
// consumed) and hands tokens out as sub-slices of it: nothing is copied or
// allocated per token. Character data holding no '&' or '\r' is validated
// in place; only data that needs entity expansion or line-ending
// normalisation is rewritten, into a scratch buffer. All scanning indexes
// relative to the current token's start, so a refill that moves the window
// keeps every pending offset valid.
//
// The fuzz targets pin the acceptance set against encoding/xml itself (the
// tree decoder in tree_test.go and the token walker in
// decode_oracle_test.go).

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// tokKind tags the token a scan produced.
type tokKind uint8

const (
	tokText tokKind = iota + 1
	tokStart
	tokEnd
)

// Byte classes for the scanner's inner loops.
const (
	cText      = 1 << iota // character data needing no entity, CR, "]]>" or UTF-8 work
	cName                  // continues a name (ASCII name bytes; every byte >= 0x80)
	cNameStart             // starts an ASCII name
	cColon                 // ':', the namespace prefix separator
	cHigh                  // part of a multi-byte UTF-8 sequence
)

var class = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '\t' || c == '\n':
			t[c] |= cText
		case c >= 0x20 && c < utf8.RuneSelf && c != '<' && c != '&' && c != '>':
			t[c] |= cText
		}
		switch {
		case c >= utf8.RuneSelf:
			t[c] |= cName | cHigh
		case c >= '0' && c <= '9', c == '.', c == '-':
			t[c] |= cName
		case c == ':':
			t[c] |= cName | cNameStart | cColon
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			t[c] |= cName | cNameStart
		}
	}
	return t
}()

// window is the reusable read state behind a Decoder, pooled so a decode
// allocates no buffers in the steady state.
type window struct {
	buf   []byte // read window; len(buf) == cap(buf)
	stack []byte // raw names of the open elements, concatenated
	ends  []int  // end offset in stack of each open element's name
	text  []byte // rewritten character data (entities expanded, CRs normalised)
	acc   []byte // scalar text accumulated across character-data tokens
}

// windowSize is a fresh window's capacity; a token larger than the window
// doubles it.
const windowSize = 64 << 10

var windowPool = sync.Pool{New: func() interface{} { return &window{buf: make([]byte, windowSize)} }}

// putWindow returns w to the pool unless one of its buffers grew past
// maxPooledBuf (one huge document must not pin its memory in the pool).
func putWindow(w *window) {
	if cap(w.buf) > maxPooledBuf {
		return
	}
	if cap(w.text) > maxPooledBuf {
		w.text = nil
	}
	if cap(w.acc) > maxPooledBuf {
		w.acc = nil
	}
	w.stack, w.ends = w.stack[:0], w.ends[:0]
	windowPool.Put(w)
}

// syntaxError reports malformed XML at the current token.
func (d *Decoder) syntaxError(msg string) error {
	return fmt.Errorf("clarens: XML syntax error at byte %d: %s", d.off+int64(d.r), msg)
}

// fail records err as the scanner's sticky error: every later scan returns
// it.
func (d *Decoder) fail(err error) error {
	d.err = err
	return err
}

// unexpectedEOF is the error for input ending inside a token: a read error
// other than io.EOF (ErrTooLarge, a broken connection) is reported as is.
func (d *Decoder) unexpectedEOF() error {
	if d.rerr == io.EOF {
		return d.syntaxError("unexpected EOF")
	}
	return d.rerr
}

// more reads further input behind the unscanned bytes buf[r:], first moving
// them to the front of the window (doubling it when they already fill it).
// It reports false once the input is exhausted; rerr then says why.
func (d *Decoder) more() bool {
	if d.rerr != nil {
		return false
	}
	w := d.win
	keep := len(d.buf) - d.r
	if keep == len(w.buf) {
		grown := make([]byte, 2*len(w.buf))
		copy(grown, d.buf[d.r:])
		w.buf = grown
	} else if d.r > 0 {
		copy(w.buf, d.buf[d.r:])
	}
	d.off += int64(d.r)
	d.r = 0
	var n int
	var err error
	for tries := 0; n == 0 && err == nil; tries++ {
		if tries == 100 {
			err = io.ErrNoProgress
			break
		}
		n, err = d.src.Read(w.buf[keep:])
	}
	d.buf = w.buf[:keep+n]
	if err != nil {
		d.rerr = err
	}
	return n > 0
}

// at returns the byte at offset i from the token start, reading more input
// as needed; false means the input ended first.
func (d *Decoder) at(i int) (byte, bool) {
	for d.r+i >= len(d.buf) {
		if !d.more() {
			return 0, false
		}
	}
	return d.buf[d.r+i], true
}

// must is at for bytes a well-formed document has to supply.
func (d *Decoder) must(i int) (byte, error) {
	c, ok := d.at(i)
	if !ok {
		return 0, d.unexpectedEOF()
	}
	return c, nil
}

// skipSpace returns the offset of the first non-space byte at or after i.
func (d *Decoder) skipSpace(i int) int {
	for {
		c, ok := d.at(i)
		if !ok || (c != ' ' && c != '\r' && c != '\n' && c != '\t') {
			return i
		}
		i++
	}
}

// scanName returns the end offset of the run of name bytes starting at i
// (i itself when there is none) and the union of their byte classes.
func (d *Decoder) scanName(i int) (int, uint8, error) {
	var flags uint8
	for {
		b := d.buf[d.r:]
		for ; i < len(b); i++ {
			k := class[b[i]]
			if k&cName == 0 {
				return i, flags, nil
			}
			flags |= k
		}
		if !d.more() {
			return i, flags, d.unexpectedEOF()
		}
	}
}

// validName reports whether raw (with byte classes flags) is an XML Name;
// ns additionally requires at most one colon (encoding/xml rejects "a:b:c"
// element and attribute names, but not processing-instruction targets).
func validName(raw []byte, flags uint8, ns bool) bool {
	if ns && flags&cColon != 0 && bytes.Count(raw, []byte{':'}) > 1 {
		return false
	}
	if flags&cHigh != 0 {
		return isXMLName(raw)
	}
	return class[raw[0]]&cNameStart != 0
}

// localName resolves a "prefix:local" name to local, as encoding/xml does;
// names with an empty prefix or local part stay whole.
func localName(raw []byte) []byte {
	if i := bytes.IndexByte(raw, ':'); i > 0 && i < len(raw)-1 {
		return raw[i+1:]
	}
	return raw
}

// next scans the next start tag, end tag or character-data token, skipping
// comments, processing instructions and directives. The token's name or
// text is valid until the following scan.
func (d *Decoder) next() (tokKind, error) {
	if d.err != nil {
		return 0, d.err
	}
	if d.closeNext {
		// The end half of a self-closing tag.
		d.closeNext = false
		d.win.pop()
		return tokEnd, nil
	}
	for {
		if d.r >= len(d.buf) && !d.more() {
			if d.rerr == io.EOF && len(d.win.ends) == 0 {
				return 0, d.fail(io.EOF)
			}
			return 0, d.fail(d.unexpectedEOF())
		}
		if d.buf[d.r] != '<' {
			return d.scanText()
		}
		var c byte
		if d.r+1 < len(d.buf) {
			c = d.buf[d.r+1]
		} else {
			var err error
			if c, err = d.must(1); err != nil {
				return 0, d.fail(err)
			}
		}
		switch c {
		case '/':
			return d.scanEndTag()
		case '?':
			if err := d.skipPI(); err != nil {
				return 0, d.fail(err)
			}
		case '!':
			if k, err := d.scanBang(); k != 0 || err != nil {
				return k, err
			}
		default:
			return d.scanStartTag()
		}
	}
}

// top is the raw name of the innermost open element.
func (w *window) top() []byte {
	return w.stack[w.base():]
}

// base is the offset in stack where the innermost open element's name
// starts.
func (w *window) base() int {
	if n := len(w.ends); n > 1 {
		return w.ends[n-2]
	}
	return 0
}

// pop closes the innermost open element.
func (w *window) pop() {
	w.stack = w.stack[:w.base()]
	w.ends = w.ends[:len(w.ends)-1]
}

// scanStartTag scans "<name attr='v' ...>" or its self-closing form.
func (d *Decoder) scanStartTag() (tokKind, error) {
	end, flags, err := d.scanName(1)
	if err != nil {
		return 0, d.fail(err)
	}
	if end == 1 {
		return 0, d.fail(d.syntaxError("expected element name after <"))
	}
	raw := d.buf[d.r+1 : d.r+end]
	if flags&(cColon|cHigh) != 0 || class[raw[0]]&cNameStart == 0 { // not a plain ASCII name
		if !validName(raw, flags, true) {
			return 0, d.fail(d.syntaxError("invalid XML name: " + string(raw)))
		}
	}
	i := end + 1
	if d.buf[d.r+end] != '>' { // scanName left buf[r+end] in the window
		if i, err = d.scanAttrs(end); err != nil {
			return 0, d.fail(err)
		}
	}
	raw = d.buf[d.r+1 : d.r+end] // the window may have moved
	w := d.win
	w.stack = append(w.stack, raw...)
	w.ends = append(w.ends, len(w.stack))
	d.name = raw
	if flags&cColon != 0 {
		d.name = localName(raw)
	}
	d.r += i
	return tokStart, nil
}

// scanAttrs validates the attributes from offset i through the tag's '>'
// or "/>", returning the offset past it.
func (d *Decoder) scanAttrs(i int) (int, error) {
	for {
		i = d.skipSpace(i)
		c, err := d.must(i)
		if err != nil {
			return 0, err
		}
		switch c {
		case '>':
			return i + 1, nil
		case '/':
			if c, err = d.must(i + 1); err != nil {
				return 0, err
			}
			if c != '>' {
				return 0, d.syntaxError("expected /> in element")
			}
			d.closeNext = true
			return i + 2, nil
		}
		if i, err = d.skipAttr(i); err != nil {
			return 0, err
		}
	}
}

// skipAttr validates one name="value" attribute starting at offset i and
// returns the offset after its closing quote.
func (d *Decoder) skipAttr(i int) (int, error) {
	end, flags, err := d.scanName(i)
	if err != nil {
		return 0, err
	}
	if end == i {
		return 0, d.syntaxError("expected attribute name in element")
	}
	if !validName(d.buf[d.r+i:d.r+end], flags, true) {
		return 0, d.syntaxError("invalid XML name: " + string(d.buf[d.r+i:d.r+end]))
	}
	i = d.skipSpace(end)
	c, err := d.must(i)
	if err != nil {
		return 0, err
	}
	if c != '=' {
		return 0, d.syntaxError("attribute name without = in element")
	}
	i = d.skipSpace(i + 1)
	q, err := d.must(i)
	if err != nil {
		return 0, err
	}
	if q != '"' && q != '\'' {
		return 0, d.syntaxError("unquoted or missing attribute value in element")
	}
	_, i, err = d.textSlow(d.win.text[:0], i+1, int(q), false)
	return i, err
}

// scanEndTag scans "</name>" and checks it closes the innermost open
// element.
func (d *Decoder) scanEndTag() (tokKind, error) {
	w := d.win
	if n := len(w.ends); n > 0 {
		// The common case, "</" + the open element's name + ">" in the
		// window, needs no name scan: the name run ends at the '>'.
		open := w.top()
		if e := d.r + 2 + len(open); e < len(d.buf) && d.buf[e] == '>' && bytes.Equal(d.buf[d.r+2:e], open) {
			w.pop()
			d.r = e + 1
			return tokEnd, nil
		}
	}
	end, _, err := d.scanName(2)
	if err != nil {
		return 0, d.fail(err)
	}
	if end == 2 {
		return 0, d.fail(d.syntaxError("expected element name after </"))
	}
	i := end
	if d.buf[d.r+i] != '>' { // scanName left buf[r+end] in the window
		i = d.skipSpace(i)
		c, err := d.must(i)
		if err != nil {
			return 0, d.fail(err)
		}
		if c != '>' {
			return 0, d.fail(d.syntaxError("invalid characters between </" + string(d.buf[d.r+2:d.r+end]) + " and >"))
		}
	}
	// No name check: the name must equal the open element's, which was
	// checked when its start tag was scanned.
	raw := d.buf[d.r+2 : d.r+end]
	if len(w.ends) == 0 {
		return 0, d.fail(d.syntaxError("unexpected end element </" + string(raw) + ">"))
	}
	if open := w.top(); !bytes.Equal(open, raw) {
		return 0, d.fail(d.syntaxError("element <" + string(open) + "> closed by </" + string(raw) + ">"))
	}
	w.pop()
	d.r += i + 1
	return tokEnd, nil
}

// skipPI validates and skips a "<?target ...?>" processing instruction,
// applying encoding/xml's checks to an <?xml ...?> declaration.
func (d *Decoder) skipPI() error {
	end, flags, err := d.scanName(2)
	if err != nil {
		return err
	}
	if end == 2 {
		return d.syntaxError("expected target name after <?")
	}
	if !validName(d.buf[d.r+2:d.r+end], flags, false) {
		return d.syntaxError("invalid XML name: " + string(d.buf[d.r+2:d.r+end]))
	}
	start := d.skipSpace(end)
	i := start
	var b0 byte
	for {
		c, err := d.must(i)
		if err != nil {
			return err
		}
		i++
		if b0 == '?' && c == '>' {
			break
		}
		b0 = c
	}
	if string(d.buf[d.r+2:d.r+end]) == "xml" {
		content := tempString(d.buf[d.r+start : d.r+i-2])
		if ver := procInst("version", content); ver != "" && ver != "1.0" {
			return fmt.Errorf("clarens: unsupported XML version %q; only version 1.0 is supported", ver)
		}
		if enc := procInst("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return fmt.Errorf("clarens: unsupported XML encoding %q; only UTF-8 is supported", enc)
		}
	}
	d.r += i
	return nil
}

// procInst parses the `param="..."` or `param='...'` value out of the
// provided string, returning "" if not found (encoding/xml's parsing,
// quirks included).
func procInst(param, s string) string {
	param = param + "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// scanBang handles "<!": a comment or directive is validated and skipped
// (kind 0), a CDATA section is a character-data token.
func (d *Decoder) scanBang() (tokKind, error) {
	c, err := d.must(2)
	if err != nil {
		return 0, d.fail(err)
	}
	switch c {
	case '-': // <!-- comment -->
		if c, err = d.must(3); err != nil {
			return 0, d.fail(err)
		}
		if c != '-' {
			return 0, d.fail(d.syntaxError("invalid sequence <!- not part of <!--"))
		}
		var b0, b1 byte
		for i := 4; ; i++ {
			if c, err = d.must(i); err != nil {
				return 0, d.fail(err)
			}
			if b0 == '-' && b1 == '-' {
				if c != '>' {
					return 0, d.fail(d.syntaxError(`invalid sequence "--" not allowed in comments`))
				}
				d.r += i + 1
				return 0, nil
			}
			b0, b1 = b1, c
		}
	case '[': // <![CDATA[ ... ]]>
		for k := 0; k < 6; k++ {
			if c, err = d.must(3 + k); err != nil {
				return 0, d.fail(err)
			}
			if c != "CDATA["[k] {
				return 0, d.fail(d.syntaxError("invalid <![ sequence"))
			}
		}
		out, end, err := d.textSlow(d.win.text[:0], 9, -1, true)
		if err != nil {
			return 0, d.fail(err)
		}
		d.win.text = out
		d.text = out
		d.r += end
		return tokText, nil
	}
	// A directive (<!DOCTYPE ...>): skip to the '>' closing it, counting
	// nested angle brackets outside quotes and skipping embedded comments.
	// The byte after "<!" is consumed unexamined, as encoding/xml does.
	var inquote byte
	depth := 0
	for i := 3; ; {
		if c, err = d.must(i); err != nil {
			return 0, d.fail(err)
		}
		i++
		if inquote == 0 && c == '>' && depth == 0 {
			d.r += i
			return 0, nil
		}
	handle:
		switch {
		case c == inquote:
			inquote = 0
		case inquote != 0:
		case c == '\'' || c == '"':
			inquote = c
		case c == '>':
			depth--
		case c == '<':
			for k := 0; k < 3; k++ {
				if c, err = d.must(i); err != nil {
					return 0, d.fail(err)
				}
				i++
				if c != "!--"[k] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if c, err = d.must(i); err != nil {
					return 0, d.fail(err)
				}
				i++
				if b0 == '-' && b1 == '-' && c == '>' {
					break
				}
				b0, b1 = b1, c
			}
		}
	}
}

// scanText scans character data up to the next '<' (or the end of input).
// Plain data is validated in place and returned as a window slice; the
// first '&' or '\r' hands the rest of the token to textSlow.
func (d *Decoder) scanText() (tokKind, error) {
	i := 0
	for {
		b := d.buf[d.r:]
		for i < len(b) && class[b[i]]&cText != 0 {
			i++
		}
		if i == len(b) {
			if d.more() {
				continue
			}
			break // the data ends with the input; the next scan reports it
		}
		c := b[i]
		switch {
		case c == '<':
		case c == '>':
			if i >= 2 && b[i-1] == ']' && b[i-2] == ']' {
				return 0, d.fail(d.syntaxError("unescaped ]]> not in CDATA section"))
			}
			i++
			continue
		case c >= utf8.RuneSelf:
			if !utf8.FullRune(b[i:]) && d.more() {
				continue
			}
			r, size := utf8.DecodeRune(d.buf[d.r+i:])
			if r == utf8.RuneError && size == 1 {
				return 0, d.fail(d.syntaxError("invalid UTF-8"))
			}
			if !isInCharacterRange(r) {
				return 0, d.fail(d.syntaxError(fmt.Sprintf("illegal character code %U", r)))
			}
			i += size
			continue
		case c == '&' || c == '\r':
			out, end, err := d.textSlow(append(d.win.text[:0], b[:i]...), i, -1, false)
			if err != nil {
				return 0, d.fail(err)
			}
			d.win.text = out
			d.text = out
			d.r += end
			return tokText, nil
		default:
			return 0, d.fail(d.syntaxError(fmt.Sprintf("illegal character code %U", rune(c))))
		}
		break
	}
	d.text = d.buf[d.r : d.r+i]
	d.r += i
	return tokText, nil
}

// textSlow is encoding/xml's text(): it decodes character data from offset
// i — inside quote-delimited attribute value when quote >= 0, a CDATA
// section when cdata — appending to out with entities expanded and "\r\n"
// and "\r" normalised to "\n", then validates the result. It returns the
// decoded data and the offset just past it (past the closing quote or
// "]]>"; at the '<' ending plain data).
func (d *Decoder) textSlow(out []byte, i, quote int, cdata bool) ([]byte, int, error) {
	var b0, b1 byte
	if !cdata && quote < 0 {
		// Resume the raw-byte history encoding/xml keeps from the token
		// start for its "]]>" check.
		if i >= 1 {
			b1 = d.buf[d.r+i-1]
		}
		if i >= 2 {
			b0 = d.buf[d.r+i-2]
		}
	}
	trunc := 0
	for {
		c, ok := d.at(i)
		if !ok {
			if cdata {
				if d.rerr == io.EOF {
					return nil, 0, d.syntaxError("unexpected EOF in CDATA section")
				}
				return nil, 0, d.rerr
			}
			break
		}
		if quote < 0 && b0 == ']' && b1 == ']' && c == '>' {
			if cdata {
				i++
				trunc = 2
				break
			}
			return nil, 0, d.syntaxError("unescaped ]]> not in CDATA section")
		}
		if c == '<' && !cdata {
			if quote >= 0 {
				return nil, 0, d.syntaxError("unescaped < inside quoted string")
			}
			break
		}
		i++
		if quote >= 0 && c == byte(quote) {
			break
		}
		if c == '&' && !cdata {
			var err error
			if out, i, err = d.entity(out, i); err != nil {
				return nil, 0, err
			}
			b0, b1 = 0, 0
			continue
		}
		switch {
		case c == '\r':
			out = append(out, '\n')
		case b1 == '\r' && c == '\n':
			// "\r\n": the '\n' was already written for the '\r'.
		default:
			out = append(out, c)
		}
		b0, b1 = b1, c
	}
	out = out[:len(out)-trunc]
	for buf := out; len(buf) > 0; {
		r, size := utf8.DecodeRune(buf)
		if r == utf8.RuneError && size == 1 {
			return nil, 0, d.syntaxError("invalid UTF-8")
		}
		buf = buf[size:]
		if !isInCharacterRange(r) {
			return nil, 0, d.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
	}
	return out, i, nil
}

// entity expands the reference following an '&' (offset i is just past
// it): a predefined entity or a character reference, appended to out. It
// returns the offset after the closing ';'.
func (d *Decoder) entity(out []byte, i int) ([]byte, int, error) {
	start := i
	c, err := d.must(i)
	if err != nil {
		return nil, 0, err
	}
	if c == '#' {
		i++
		if c, err = d.must(i); err != nil {
			return nil, 0, err
		}
		base := uint64(10)
		if c == 'x' {
			base = 16
			i++
			if c, err = d.must(i); err != nil {
				return nil, 0, err
			}
		}
		digits, n, big := 0, uint64(0), false
		for {
			var v byte
			switch {
			case '0' <= c && c <= '9':
				v = c - '0'
			case base == 16 && 'a' <= c && c <= 'f':
				v = c - 'a' + 10
			case base == 16 && 'A' <= c && c <= 'F':
				v = c - 'A' + 10
			default:
				v = 0xff
			}
			if v == 0xff {
				break
			}
			if n = n*base + uint64(v); n > utf8.MaxRune {
				big = true
				n = utf8.MaxRune + 1
			}
			digits++
			i++
			if c, err = d.must(i); err != nil {
				return nil, 0, err
			}
		}
		if c == ';' && digits > 0 && !big {
			return utf8.AppendRune(out, rune(n)), i + 1, nil
		}
	} else {
		end, _, err := d.scanName(i)
		if err != nil {
			return nil, 0, err
		}
		if c, err = d.must(end); err != nil {
			return nil, 0, err
		}
		if c == ';' {
			var r byte
			switch string(d.buf[d.r+i : d.r+end]) {
			case "lt":
				r = '<'
			case "gt":
				r = '>'
			case "amp":
				r = '&'
			case "apos":
				r = '\''
			case "quot":
				r = '"'
			}
			if r != 0 {
				return append(out, r), end + 1, nil
			}
		}
		i = end
	}
	return nil, 0, d.syntaxError("invalid character entity &" + string(d.buf[d.r+start:d.r+i]))
}
