// Package xspec implements the paper's "XML Specification" metadata files
// (§4.4). A LowerSpec describes one database: its tables, columns,
// relationships, and the logical names that form the federation's data
// dictionary. The UpperSpec is the single manually-curated file that lists
// every participating database with its URL, driver name and lower-level
// spec. Specs are generated from live databases (the Unity project shipped
// equivalent extraction tools), fingerprinted with size+MD5 for the
// schema-change tracker (§4.9), and parsed back for query planning.
package xspec

import (
	"crypto/md5"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gridrdb/internal/sqlengine"
)

// ColumnSpec describes one column of a table.
type ColumnSpec struct {
	Name     string `xml:"name,attr"`
	Logical  string `xml:"logical,attr"`
	Type     string `xml:"type,attr"` // vendor type name
	Kind     string `xml:"kind,attr"` // canonical engine kind
	Nullable bool   `xml:"nullable,attr"`
	Key      string `xml:"key,attr,omitempty"` // "PRI", "UNI" or ""
}

// TableSpec describes one table (or view) of a database.
type TableSpec struct {
	Name    string       `xml:"name,attr"`
	Logical string       `xml:"logical,attr"`
	View    bool         `xml:"view,attr,omitempty"`
	Rows    int          `xml:"rows,attr"`
	Columns []ColumnSpec `xml:"column"`
}

// Relationship records a foreign-key style link between two tables of the
// database (§4.4's "relationships within the database"). It is spec
// content only: no planner reads it.
type Relationship struct {
	From string `xml:"from,attr"` // "table.column"
	To   string `xml:"to,attr"`
}

// LowerSpec is a per-database XSpec file.
type LowerSpec struct {
	XMLName       xml.Name       `xml:"database"`
	Name          string         `xml:"name,attr"`
	Dialect       string         `xml:"dialect,attr"`
	Tables        []TableSpec    `xml:"table"`
	Relationships []Relationship `xml:"relationship"`
}

// SourceRef is one entry of the upper-level XSpec: where a database lives
// and how to reach it.
type SourceRef struct {
	Name   string `xml:"name,attr"`
	URL    string `xml:"url,attr"`    // DSN, e.g. tcp://host:port/db
	Driver string `xml:"driver,attr"` // e.g. gridsql-mysql
	XSpec  string `xml:"xspec,attr"`  // file name of the lower-level spec
}

// UpperSpec is the single federation-level XSpec file.
type UpperSpec struct {
	XMLName xml.Name    `xml:"federation"`
	Name    string      `xml:"name,attr"`
	Sources []SourceRef `xml:"source"`
}

// Queryer is the minimal query surface needed to introspect a database; it
// is satisfied by *sqlengine.Engine and *wire.Client.
type Queryer interface {
	Query(sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error)
}

// Generate introspects a database through its query interface (SHOW TABLES
// + DESCRIBE, the portable subset every engine dialect supports) and
// returns its lower-level spec. The logical name of every table and column
// defaults to its physical name; callers may rewrite Logical fields to
// install dictionary aliases.
func Generate(name, dialect string, q Queryer) (*LowerSpec, error) {
	spec := &LowerSpec{Name: name, Dialect: dialect}
	tbls, err := q.Query("SHOW TABLES")
	if err != nil {
		return nil, fmt.Errorf("xspec: introspect %s: %w", name, err)
	}
	for _, row := range tbls.Rows {
		tname := row[0].Str()
		isView := len(row) > 1 && row[1].Str() == "view"
		ts := TableSpec{Name: tname, Logical: tname, View: isView}
		if !isView {
			cols, err := q.Query("DESCRIBE " + tname)
			if err != nil {
				return nil, fmt.Errorf("xspec: describe %s.%s: %w", name, tname, err)
			}
			for _, c := range cols.Rows {
				kindName := canonicalKind(c[1].Str())
				ts.Columns = append(ts.Columns, ColumnSpec{
					Name:     c[0].Str(),
					Logical:  c[0].Str(),
					Type:     c[1].Str(),
					Kind:     kindName,
					Nullable: c[2].Str() == "YES",
					Key:      c[3].Str(),
				})
			}
			if rc, err := q.Query("SELECT COUNT(*) FROM " + tname); err == nil && len(rc.Rows) == 1 {
				ts.Rows = int(rc.Rows[0][0].Int)
			}
		}
		spec.Tables = append(spec.Tables, ts)
	}
	sort.Slice(spec.Tables, func(i, j int) bool { return spec.Tables[i].Name < spec.Tables[j].Name })
	// §4.4: the lower-level spec also records relationships within the
	// database; engines do not declare foreign keys, so they are inferred
	// from primary-key naming.
	InferRelationships(spec)
	return spec, nil
}

// canonicalKind maps a vendor type name (as reported by DESCRIBE) to the
// engine kind name, so specs from different vendors are comparable.
func canonicalKind(vendorType string) string {
	base := strings.ToUpper(vendorType)
	if i := strings.IndexByte(base, '('); i >= 0 {
		base = base[:i]
	}
	base = strings.Fields(base)[0]
	for _, d := range []*sqlengine.Dialect{
		sqlengine.DialectANSI, sqlengine.DialectOracle, sqlengine.DialectMySQL,
		sqlengine.DialectMSSQL, sqlengine.DialectSQLite,
	} {
		if k, err := d.TypeKind(base); err == nil {
			return k.String()
		}
	}
	return "VARCHAR"
}

// Marshal renders a spec as canonical indented XML.
func (s *LowerSpec) Marshal() ([]byte, error) {
	out, err := xml.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

// ParseLower parses a lower-level spec document.
func ParseLower(data []byte) (*LowerSpec, error) {
	var s LowerSpec
	if err := xml.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("xspec: parse lower spec: %w", err)
	}
	return &s, nil
}

// Fingerprint is the change-detection token from §4.9: the spec's size and
// MD5 sum. Two fingerprints are compared size-first (cheap), then by sum.
type Fingerprint struct {
	Size int64
	MD5  [md5.Size]byte
}

// FingerprintOf computes the fingerprint of a marshaled spec.
func FingerprintOf(data []byte) Fingerprint {
	return Fingerprint{Size: int64(len(data)), MD5: md5.Sum(data)}
}

// Equal implements the paper's comparison order: sizes first, then MD5.
func (f Fingerprint) Equal(g Fingerprint) bool {
	if f.Size != g.Size {
		return false
	}
	return f.MD5 == g.MD5
}

// String renders a short hex form for logs.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%d:%x", f.Size, f.MD5[:4])
}

// WriteFile writes a marshaled spec to disk atomically.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile loads a spec file.
func ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Dictionary is the logical data dictionary built from a set of lower
// specs: it maps logical table names to (database, physical table) and
// logical column names to physical columns. Clients use only logical
// names; the query processor maps them to physical names (§4.4).
type Dictionary struct {
	// Tables maps logical table name -> list of locations (a table may be
	// replicated on several databases).
	Tables map[string][]TableLocation
}

// TableLocation is one physical placement of a logical table.
type TableLocation struct {
	Database string
	Table    string // physical name
	Spec     TableSpec
	// ColByLogical maps logical column name -> physical column name.
	ColByLogical map[string]string
}

// BuildDictionary merges lower specs into one dictionary.
func BuildDictionary(specs ...*LowerSpec) *Dictionary {
	d := &Dictionary{Tables: make(map[string][]TableLocation)}
	for _, s := range specs {
		for _, t := range s.Tables {
			loc := TableLocation{
				Database:     s.Name,
				Table:        t.Name,
				Spec:         t,
				ColByLogical: make(map[string]string, len(t.Columns)),
			}
			for _, c := range t.Columns {
				loc.ColByLogical[LogicalName(c.Logical, c.Name)] = c.Name
			}
			logical := LogicalName(t.Logical, t.Name)
			d.Tables[logical] = append(d.Tables[logical], loc)
		}
	}
	return d
}

// LogicalName is the dictionary's name of a table or column: its logical
// name, else its physical one, lower-cased.
func LogicalName(logical, physical string) string {
	if logical == "" {
		logical = physical
	}
	return strings.ToLower(logical)
}

// Lookup returns the placements of a logical table name.
func (d *Dictionary) Lookup(logical string) []TableLocation {
	return d.Tables[strings.ToLower(logical)]
}

// LogicalTables lists all logical table names, sorted.
func (d *Dictionary) LogicalTables() []string {
	out := make([]string, 0, len(d.Tables))
	for t := range d.Tables {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
