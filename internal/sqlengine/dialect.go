package sqlengine

import (
	"fmt"
	"strings"
)

// LimitStyle enumerates how a dialect spells row-count limits.
type LimitStyle uint8

// The limit styles used by the emulated vendors.
const (
	// LimitClause is `LIMIT n [OFFSET m]` (MySQL, SQLite).
	LimitClause LimitStyle = iota
	// LimitTop is `SELECT TOP n ...` (MS-SQL Server 2000).
	LimitTop
	// LimitRownum is `WHERE ROWNUM <= n` (Oracle 9i/10g).
	LimitRownum
)

// Dialect captures the vendor-visible surface differences between the
// emulated database products: identifier quoting, limit syntax, type-name
// vocabulary, function spellings and the string concatenation operator.
// The middleware uses Dialect both to parse incoming vendor SQL and to
// generate vendor SQL for sub-queries.
type Dialect struct {
	// Name is the vendor key: "oracle", "mysql", "mssql", "sqlite", "ansi".
	Name string
	// DriverName is the database/sql driver that speaks this dialect.
	DriverName string
	// Quotes lists the identifier-quote characters the lexer accepts.
	Quotes identQuotes
	// QuoteOpen/QuoteClose are used when generating quoted identifiers.
	QuoteOpen, QuoteClose string
	// LimitStyle is how row limits are written.
	LimitStyle LimitStyle
	// ConcatOp is the infix string concatenation operator ("||" or "+");
	// empty means only the CONCAT function is available (MySQL).
	ConcatOp string
	// typeMap maps vendor type names to engine kinds.
	typeMap map[string]Kind
	// funcAliases maps vendor function spellings to canonical names.
	funcAliases map[string]string
	// typeNames maps engine kinds back to the preferred vendor type name.
	typeNames map[Kind]string
}

// Dialects for the four vendors in the paper's deployment plus ANSI.
var (
	DialectANSI = &Dialect{
		Name:       "ansi",
		DriverName: "gridsql-ansi",
		Quotes:     identQuotes{double: true},
		QuoteOpen:  `"`, QuoteClose: `"`,
		LimitStyle: LimitClause,
		ConcatOp:   "||",
		typeMap:    ansiTypes,
		typeNames: map[Kind]string{
			KindInt: "INTEGER", KindFloat: "DOUBLE",
			KindString: "VARCHAR", KindBool: "BOOLEAN",
			KindTime: "TIMESTAMP", KindBytes: "BLOB",
		},
	}

	// DialectOracle emulates Oracle 9i/10g: "ident" quoting, ROWNUM limits,
	// NUMBER/VARCHAR2/CLOB types, NVL, ||.
	DialectOracle = &Dialect{
		Name:       "oracle",
		DriverName: "gridsql-oracle",
		Quotes:     identQuotes{double: true},
		QuoteOpen:  `"`, QuoteClose: `"`,
		LimitStyle: LimitRownum,
		ConcatOp:   "||",
		typeMap: merge(ansiTypes, map[string]Kind{
			"NUMBER": KindInt, "NUMBER_DEC": KindFloat, "VARCHAR2": KindString,
			"NVARCHAR2": KindString, "CLOB": KindString, "DATE": KindTime,
			"BINARY_DOUBLE": KindFloat, "BINARY_FLOAT": KindFloat, "RAW": KindBytes,
		}),
		funcAliases: map[string]string{"NVL": "COALESCE", "SYSDATE": "NOW"},
		typeNames: map[Kind]string{
			KindInt: "NUMBER", KindFloat: "BINARY_DOUBLE", KindString: "VARCHAR2",
			KindBool: "NUMBER", KindTime: "DATE", KindBytes: "RAW",
		},
	}

	// DialectMySQL emulates MySQL 4.x: `ident` quoting, LIMIT n, IFNULL,
	// CONCAT() only (no infix concatenation; || is logical OR in MySQL 4).
	DialectMySQL = &Dialect{
		Name:       "mysql",
		DriverName: "gridsql-mysql",
		Quotes:     identQuotes{backtick: true},
		QuoteOpen:  "`", QuoteClose: "`",
		LimitStyle: LimitClause,
		ConcatOp:   "",
		typeMap: merge(ansiTypes, map[string]Kind{
			"TINYINT": KindInt, "MEDIUMINT": KindInt, "DATETIME": KindTime,
			"LONGTEXT": KindString, "MEDIUMTEXT": KindString,
			"UNSIGNED": KindInt, "AUTO_INCREMENT": KindInt,
		}),
		funcAliases: map[string]string{"IFNULL": "COALESCE", "CURDATE": "NOW"},
		typeNames: map[Kind]string{
			KindInt: "BIGINT", KindFloat: "DOUBLE", KindString: "VARCHAR",
			KindBool: "TINYINT", KindTime: "DATETIME", KindBytes: "BLOB",
		},
	}

	// DialectMSSQL emulates SQL Server 2000: [ident] quoting, SELECT TOP n,
	// ISNULL, + concatenation.
	DialectMSSQL = &Dialect{
		Name:       "mssql",
		DriverName: "gridsql-mssql",
		Quotes:     identQuotes{bracket: true, double: true},
		QuoteOpen:  "[", QuoteClose: "]",
		LimitStyle: LimitTop,
		ConcatOp:   "+",
		typeMap: merge(ansiTypes, map[string]Kind{
			"NVARCHAR": KindString, "NTEXT": KindString, "DATETIME": KindTime,
			"BIT": KindBool, "MONEY": KindFloat, "IMAGE": KindBytes,
			"UNIQUEIDENTIFIER": KindString, "TINYINT": KindInt,
		}),
		funcAliases: map[string]string{"ISNULL": "COALESCE", "GETDATE": "NOW", "LEN": "LENGTH"},
		typeNames: map[Kind]string{
			KindInt: "BIGINT", KindFloat: "FLOAT", KindString: "NVARCHAR",
			KindBool: "BIT", KindTime: "DATETIME", KindBytes: "IMAGE",
		},
	}

	// DialectSQLite emulates SQLite 2/3: "ident" quoting, LIMIT n, IFNULL, ||.
	DialectSQLite = &Dialect{
		Name:       "sqlite",
		DriverName: "gridsql-sqlite",
		Quotes:     identQuotes{double: true, backtick: true, bracket: true},
		QuoteOpen:  `"`, QuoteClose: `"`,
		LimitStyle: LimitClause,
		ConcatOp:   "||",
		typeMap: merge(ansiTypes, map[string]Kind{
			"DATETIME": KindTime, "NUMERIC": KindFloat,
		}),
		funcAliases: map[string]string{"IFNULL": "COALESCE"},
		typeNames: map[Kind]string{
			KindInt: "INTEGER", KindFloat: "REAL", KindString: "TEXT",
			KindBool: "INTEGER", KindTime: "DATETIME", KindBytes: "BLOB",
		},
	}
)

var ansiTypes = map[string]Kind{
	"INT": KindInt, "INTEGER": KindInt, "BIGINT": KindInt, "SMALLINT": KindInt,
	"FLOAT": KindFloat, "REAL": KindFloat, "DOUBLE": KindFloat,
	"DOUBLE_DEC": KindFloat, "DECIMAL": KindFloat, "DECIMAL_DEC": KindFloat,
	"NUMERIC_DEC": KindFloat, "FLOAT_DEC": KindFloat,
	"VARCHAR": KindString, "CHAR": KindString, "TEXT": KindString,
	"STRING": KindString, "BOOLEAN": KindBool, "BOOL": KindBool,
	"TIMESTAMP": KindTime, "BLOB": KindBytes, "BYTEA": KindBytes,
	"VARBINARY": KindBytes,
}

func merge(a, b map[string]Kind) map[string]Kind {
	out := make(map[string]Kind, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// DialectByName returns the dialect for a vendor key, or an error listing
// the known vendors.
func DialectByName(name string) (*Dialect, error) {
	switch strings.ToLower(name) {
	case "ansi", "":
		return DialectANSI, nil
	case "oracle":
		return DialectOracle, nil
	case "mysql":
		return DialectMySQL, nil
	case "mssql", "sqlserver", "ms-sql":
		return DialectMSSQL, nil
	case "sqlite":
		return DialectSQLite, nil
	}
	return nil, fmt.Errorf("sqlengine: unknown dialect %q (known: oracle, mysql, mssql, sqlite, ansi)", name)
}

// TypeKind resolves a vendor type name to an engine kind.
func (d *Dialect) TypeKind(typeName string) (Kind, error) {
	name := strings.ToUpper(typeName)
	if k, ok := d.typeMap[name]; ok {
		return k, nil
	}
	// Fall back to the ANSI vocabulary so cross-vendor DDL still loads.
	if k, ok := ansiTypes[name]; ok {
		return k, nil
	}
	return KindNull, fmt.Errorf("sqlengine: dialect %s: unknown type %q", d.Name, typeName)
}

// TypeName renders an engine kind as this dialect's preferred DDL type.
func (d *Dialect) TypeName(ct ColumnType) string {
	name := d.typeNames[ct.Kind]
	if name == "" {
		name = "VARCHAR"
	}
	if ct.Kind == KindString && ct.Size > 0 && !strings.Contains(name, "TEXT") {
		return fmt.Sprintf("%s(%d)", name, ct.Size)
	}
	return name
}

// CanonicalFunc maps a vendor function spelling to the canonical name used
// by the evaluator (e.g. NVL/IFNULL/ISNULL all become COALESCE).
func (d *Dialect) CanonicalFunc(name string) string {
	if d.funcAliases != nil {
		if canon, ok := d.funcAliases[strings.ToUpper(name)]; ok {
			return canon
		}
	}
	return strings.ToUpper(name)
}

// QuoteIdent renders an identifier with this dialect's quoting.
func (d *Dialect) QuoteIdent(name string) string {
	return d.QuoteOpen + name + d.QuoteClose
}

// Concat renders a concatenation of two already-rendered expressions.
func (d *Dialect) Concat(a, b string) string {
	if d.ConcatOp == "" {
		return fmt.Sprintf("CONCAT(%s, %s)", a, b)
	}
	return fmt.Sprintf("%s %s %s", a, d.ConcatOp, b)
}

// CreateTableSQL renders CREATE TABLE DDL for a column set in this dialect.
func (d *Dialect) CreateTableSQL(table string, cols []ColumnDef, primaryKey []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE %s (", d.QuoteIdent(table))
	for i, c := range cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", d.QuoteIdent(c.Name), d.TypeName(c.Type))
		if c.NotNull && !c.PrimaryKey {
			sb.WriteString(" NOT NULL")
		}
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
		if c.Unique {
			sb.WriteString(" UNIQUE")
		}
	}
	if len(primaryKey) > 0 {
		sb.WriteString(", PRIMARY KEY (")
		for i, c := range primaryKey {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(d.QuoteIdent(c))
		}
		sb.WriteString(")")
	}
	sb.WriteString(")")
	return sb.String()
}
