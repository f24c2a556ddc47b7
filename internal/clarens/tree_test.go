package clarens

// The generic-tree XML-RPC decoder: the whole document is unmarshalled
// into xNode values and every scalar is boxed. It is the reference the
// streaming decoder (decode.go) is checked against — the fuzz targets and
// the wire round-trip tests assert "same value or same failure, never a
// panic" — and is compiled into tests only.

import (
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// xNode mirrors the generic XML tree of an XML-RPC document.
type xNode struct {
	XMLName  xml.Name
	Content  string  `xml:",chardata"`
	Children []xNode `xml:",any"`
}

func (n *xNode) child(name string) *xNode {
	for i := range n.Children {
		if n.Children[i].XMLName.Local == name {
			return &n.Children[i]
		}
	}
	return nil
}

func decodeValueTree(n *xNode) (interface{}, error) {
	if len(n.Children) == 0 {
		// Bare text inside <value> is a string per the XML-RPC spec.
		return n.Content, nil
	}
	t := &n.Children[0]
	switch t.XMLName.Local {
	case "nil":
		return nil, nil
	case "boolean":
		return strings.TrimSpace(t.Content) == "1", nil
	case "i4", "int", "i8":
		v, err := strconv.ParseInt(strings.TrimSpace(t.Content), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("clarens: bad integer %q", t.Content)
		}
		return v, nil
	case "double":
		v, err := strconv.ParseFloat(strings.TrimSpace(t.Content), 64)
		if err != nil {
			return nil, fmt.Errorf("clarens: bad double %q", t.Content)
		}
		return v, nil
	case "string":
		return t.Content, nil
	case "dateTime.iso8601":
		v, err := time.Parse("20060102T15:04:05", strings.TrimSpace(t.Content))
		if err != nil {
			return nil, fmt.Errorf("clarens: bad dateTime %q", t.Content)
		}
		return v.UTC(), nil
	case "base64":
		v, err := base64.StdEncoding.DecodeString(strings.TrimSpace(t.Content))
		if err != nil {
			return nil, fmt.Errorf("clarens: bad base64: %v", err)
		}
		return v, nil
	case "array":
		data := t.child("data")
		if data == nil {
			return []interface{}{}, nil
		}
		out := make([]interface{}, 0, len(data.Children))
		for i := range data.Children {
			if data.Children[i].XMLName.Local != "value" {
				continue
			}
			v, err := decodeValueTree(&data.Children[i])
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case "struct":
		out := make(map[string]interface{})
		for i := range t.Children {
			m := &t.Children[i]
			if m.XMLName.Local != "member" {
				continue
			}
			nameNode := m.child("name")
			valNode := m.child("value")
			if nameNode == nil || valNode == nil {
				return nil, fmt.Errorf("clarens: malformed struct member")
			}
			v, err := decodeValueTree(valNode)
			if err != nil {
				return nil, err
			}
			out[nameNode.Content] = v
		}
		return out, nil
	}
	return nil, fmt.Errorf("clarens: unknown XML-RPC type <%s>", t.XMLName.Local)
}

// unmarshalCallTree parses a methodCall document through the tree decoder.
func unmarshalCallTree(data []byte) (string, []interface{}, error) {
	var root xNode
	if err := xml.Unmarshal(data, &root); err != nil {
		return "", nil, fmt.Errorf("clarens: parse call: %w", err)
	}
	if root.XMLName.Local != "methodCall" {
		return "", nil, fmt.Errorf("clarens: expected <methodCall>, got <%s>", root.XMLName.Local)
	}
	nameNode := root.child("methodName")
	if nameNode == nil {
		return "", nil, fmt.Errorf("clarens: missing <methodName>")
	}
	method := strings.TrimSpace(nameNode.Content)
	var args []interface{}
	if params := root.child("params"); params != nil {
		for i := range params.Children {
			p := &params.Children[i]
			if p.XMLName.Local != "param" {
				continue
			}
			valNode := p.child("value")
			if valNode == nil {
				return "", nil, fmt.Errorf("clarens: param without value")
			}
			v, err := decodeValueTree(valNode)
			if err != nil {
				return "", nil, err
			}
			args = append(args, v)
		}
	}
	return method, args, nil
}

// unmarshalResponseTree parses a methodResponse document through the tree
// decoder.
func unmarshalResponseTree(data []byte) (interface{}, error) {
	var root xNode
	if err := xml.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("clarens: parse response: %w", err)
	}
	if root.XMLName.Local != "methodResponse" {
		return nil, fmt.Errorf("clarens: expected <methodResponse>, got <%s>", root.XMLName.Local)
	}
	if f := root.child("fault"); f != nil {
		valNode := f.child("value")
		if valNode == nil {
			return nil, &Fault{Code: FaultParse, Message: "malformed fault"}
		}
		v, err := decodeValueTree(valNode)
		if err != nil {
			return nil, err
		}
		return nil, faultFromValue(v)
	}
	params := root.child("params")
	if params == nil {
		return nil, nil
	}
	for i := range params.Children {
		p := &params.Children[i]
		if p.XMLName.Local != "param" {
			continue
		}
		valNode := p.child("value")
		if valNode == nil {
			return nil, fmt.Errorf("clarens: param without value")
		}
		return decodeValueTree(valNode)
	}
	return nil, nil
}
