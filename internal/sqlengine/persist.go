package sqlengine

import (
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"time"
)

// The gob-serializable snapshot format. Expressions (defaults, view ASTs)
// are persisted as SQL text and re-parsed on load, keeping the format free
// of interface types.

type persistColumn struct {
	Name       string
	Kind       Kind
	Size       int
	TypeName   string
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	DefaultSQL string
}

type persistValue struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	Bool  bool
	Time  time.Time
	Bytes []byte
	// NegZero marks a Float of -0, which gob (omitting fields equal to
	// zero) would otherwise load as +0. Older snapshots lack the field and
	// older readers ignore it.
	NegZero bool
}

type persistIndex struct {
	Name    string
	Columns []string
	Unique  bool
}

type persistTable struct {
	Name       string
	Columns    []persistColumn
	PrimaryKey []string
	Indexes    []persistIndex
	Rows       [][]persistValue
}

type persistView struct {
	Name string
	Text string
}

type persistDB struct {
	Name    string
	Dialect string
	Tables  []persistTable
	Views   []persistView
}

func toPersistValue(v Value) persistValue {
	p := persistValue{Kind: v.Kind}
	switch v.Kind {
	case KindInt:
		p.Int = v.Int
	case KindFloat:
		p.Float = v.Float
		p.NegZero = v.Float == 0 && math.Signbit(v.Float)
	case KindString:
		p.Str = v.Str()
	case KindBool:
		p.Bool = v.Bool()
	case KindTime:
		p.Time = v.Time()
	case KindBytes:
		p.Bytes = v.Bytes()
	}
	return p
}

func fromPersistValue(p persistValue) Value {
	switch p.Kind {
	case KindInt:
		return NewInt(p.Int)
	case KindFloat:
		if p.NegZero {
			return NewFloat(math.Copysign(0, -1))
		}
		return NewFloat(p.Float)
	case KindString:
		return NewString(p.Str)
	case KindBool:
		return NewBool(p.Bool)
	case KindTime:
		return NewTime(p.Time)
	case KindBytes:
		return NewBytes(p.Bytes)
	}
	return Null()
}

// Save serializes the full database (schema, rows, views, index
// definitions) to w. The format is self-contained and versioned by the gob
// type descriptors. It writes the catalog published when it starts, and
// holds no lock while it encodes and writes.
func (e *Engine) Save(w io.Writer) error {
	cat := e.db.pin()
	p := persistDB{Name: e.db.name, Dialect: e.dialect.Name}
	for _, name := range slices.Sorted(maps.Keys(cat.tables)) {
		t := cat.tables[name]
		pt := persistTable{Name: t.Name, PrimaryKey: t.PrimaryKey}
		for _, c := range t.Columns {
			pc := persistColumn{
				Name: c.Name, Kind: c.Type.Kind, Size: c.Type.Size,
				TypeName: c.TypeName, NotNull: c.NotNull,
				PrimaryKey: c.PrimaryKey, Unique: c.Unique,
			}
			if c.Default != nil {
				if lit, ok := c.Default.(*Literal); ok {
					pc.DefaultSQL = lit.Val.SQLLiteral()
				}
			}
			pt.Columns = append(pt.Columns, pc)
		}
		for _, iname := range slices.Sorted(maps.Keys(t.Indexes)) {
			idx := t.Indexes[iname]
			pt.Indexes = append(pt.Indexes, persistIndex{Name: idx.Name, Columns: idx.Columns, Unique: idx.Unique})
		}
		for _, row := range t.Rows {
			prow := make([]persistValue, len(row))
			for i, v := range row {
				prow[i] = toPersistValue(v)
			}
			pt.Rows = append(pt.Rows, prow)
		}
		p.Tables = append(p.Tables, pt)
	}
	for _, name := range slices.Sorted(maps.Keys(cat.views)) {
		p.Views = append(p.Views, persistView{Name: name, Text: cat.views[name].Text})
	}
	return gob.NewEncoder(w).Encode(&p)
}

// SaveFile writes the database snapshot to path atomically.
func (e *Engine) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := e.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a snapshot produced by Save and returns a fresh Engine.
func Load(r io.Reader) (*Engine, error) {
	var p persistDB
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("sqlengine: load: %w", err)
	}
	dialect, err := DialectByName(p.Dialect)
	if err != nil {
		return nil, err
	}
	e := NewEngine(p.Name, dialect)
	parser := NewParser(dialect)
	for _, pt := range p.Tables {
		t := &Table{Name: pt.Name, PrimaryKey: pt.PrimaryKey, Indexes: make(map[string]*Index), id: tableIDs.Add(1)}
		for _, pc := range pt.Columns {
			col := Column{
				Name: pc.Name, Type: ColumnType{Kind: pc.Kind, Size: pc.Size},
				TypeName: pc.TypeName, NotNull: pc.NotNull,
				PrimaryKey: pc.PrimaryKey, Unique: pc.Unique,
			}
			if pc.DefaultSQL != "" {
				// Parse the literal via a throwaway SELECT.
				st, err := parser.ParseStatement("SELECT " + pc.DefaultSQL)
				if err == nil {
					if sel, ok := st.(*SelectStmt); ok && len(sel.Items) == 1 {
						col.Default = sel.Items[0].Expr
					}
				}
			}
			t.Columns = append(t.Columns, col)
		}
		t.rebuildColIndex()
		for _, pi := range pt.Indexes {
			t.Indexes[pi.Name] = &Index{Name: pi.Name, Columns: pi.Columns, Unique: pi.Unique}
		}
		rows := make([]Row, len(pt.Rows))
		for ri, prow := range pt.Rows {
			rows[ri] = make(Row, len(prow))
			for i, pv := range prow {
				rows[ri][i] = fromPersistValue(pv)
			}
		}
		if err := t.setRows(rows, 0); err != nil {
			return nil, fmt.Errorf("sqlengine: load: %w", err)
		}
		e.db.pin().tables[pt.Name] = t // before any caller has e
	}
	for _, pv := range p.Views {
		st, err := parser.ParseStatement(pv.Text)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: load view %q: %w", pv.Name, err)
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			return nil, fmt.Errorf("sqlengine: load view %q: not a SELECT", pv.Name)
		}
		e.db.pin().views[pv.Name] = &View{Name: pv.Name, Stmt: sel, Text: pv.Text}
	}
	return e, nil
}

// LoadFile reads a snapshot from a file.
func LoadFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
