// Package warehouse implements the paper's data-warehouse layer (§4.2) and
// data-mart materialization (§4.3): the Extraction-Transformation-
// Transportation-Loading (ETL) pipeline that integrates normalized source
// databases into the denormalized star schema, the read-only analysis
// views created over the warehouse, and the replication of those views
// into data marts.
//
// Faithful to the prototype, data movement is staged through a temporary
// file: every transfer first *extracts* rows into a staging file (the
// paper's "data extraction" series in Figures 4 and 5) and then *loads*
// the staging file into the target database (the "data loading" series).
// The paper calls this staging "a performance bottleneck"; Direct mode
// (the paper's proposed fix) streams rows without the intermediate file
// and is used by the staging ablation benchmark.
package warehouse

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"gridrdb/internal/netsim"
	"gridrdb/internal/ntuple"
	"gridrdb/internal/sqlengine"
)

// Queryer is the read surface of a database (local engine or wire client).
type Queryer interface {
	Query(sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error)
}

// Execer is the write surface of a database.
type Execer interface {
	Exec(sql string, params ...sqlengine.Value) (int64, error)
}

// DB combines both surfaces.
type DB interface {
	Queryer
	Execer
}

// BulkInserter is the typed bulk-load surface a target may offer in
// addition to Execer. Local engines implement it (sqlengine.Engine), and
// the loader uses it to insert decoded staging batches directly —
// skipping the render-to-SQL / re-parse round trip — while wire targets
// keep the rendered multi-row INSERT path.
type BulkInserter interface {
	InsertRows(table string, rows []sqlengine.Row) (int64, error)
}

// execInsert inserts rows into table on target: through the typed bulk
// path when the target supports it, otherwise via a multi-row INSERT
// rendered in the target's dialect.
func execInsert(target Execer, dialect *sqlengine.Dialect, table string, rows []sqlengine.Row) error {
	if len(rows) == 0 {
		return nil
	}
	if bulk, ok := target.(BulkInserter); ok {
		_, err := bulk.InsertRows(table, rows)
		return err
	}
	_, err := target.Exec(insertSQL(dialect, table, rows))
	return err
}

// ETL configures the pipeline.
type ETL struct {
	// Staging selects the prototype's temp-file path (true, default via
	// NewETL) or direct streaming (false).
	Staging bool
	// TempDir is where staging files are created ("" = os.TempDir).
	TempDir string
	// Profile/Clock charge simulated network transfer costs for the data
	// streamed between databases; nil Profile disables charging.
	Profile *netsim.Profile
	// Clock receives the charges; nil uses netsim.DefaultClock.
	Clock *netsim.Clock
	// BatchSize is the number of rows per INSERT batch when loading.
	BatchSize int
	// OnRefresh, when set, is called with the mart table name after a
	// successful Materialize. The data access layer hangs query-result
	// cache invalidation here (Service.MartInvalidator), so re-running
	// Stage 2 evicts exactly the cached queries that read the refreshed
	// table.
	OnRefresh func(martTable string)
}

// NewETL returns an ETL in the paper's configuration: temp-file staging on.
func NewETL() *ETL { return &ETL{Staging: true, BatchSize: 128} }

func (e *ETL) clock() *netsim.Clock {
	if e.Clock != nil {
		return e.Clock
	}
	return netsim.DefaultClock
}

func (e *ETL) charge(n int64) {
	if e.Profile != nil {
		e.clock().Transfer(e.Profile, n)
	}
}

func (e *ETL) batch() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return 128
}

// StageResult reports one measured transfer, mirroring the two plotted
// series of Figures 4 and 5.
type StageResult struct {
	// ExtractTime is the time to pull rows from the source, transform
	// them, and write the staging file.
	ExtractTime time.Duration
	// LoadTime is the time to read the staging file and insert into the
	// target.
	LoadTime time.Duration
	// Bytes is the staging-file size (the x-axis of Figures 4 and 5).
	Bytes int64
	// Rows is the number of rows transferred.
	Rows int64
}

// Total returns extract+load time.
func (r StageResult) Total() time.Duration { return r.ExtractTime + r.LoadTime }

// ---- staging file codec ----
// One row per line; fields are tab-separated SQL literals, so staging
// files are inspectable with standard tools (the prototype streamed
// through plain text files too).

func encodeRow(w io.Writer, row sqlengine.Row) (int64, error) {
	var sb strings.Builder
	for i, v := range row {
		if i > 0 {
			sb.WriteByte('\t')
		}
		lit := v.SQLLiteral()
		// Escape literal newlines/tabs inside strings to keep one row per
		// line.
		lit = strings.ReplaceAll(lit, "\\", "\\\\")
		lit = strings.ReplaceAll(lit, "\n", "\\n")
		lit = strings.ReplaceAll(lit, "\t", "\\t")
		lit = strings.ReplaceAll(lit, "\r", "\\r")
		sb.WriteString(lit)
	}
	sb.WriteByte('\n')
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

func decodeField(s string) (sqlengine.Value, error) {
	if strings.IndexByte(s, '\\') >= 0 {
		s = unescapeField(s)
	}
	switch {
	case s == "NULL":
		return sqlengine.Null(), nil
	case s == "TRUE":
		return sqlengine.NewBool(true), nil
	case s == "FALSE":
		return sqlengine.NewBool(false), nil
	case len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'':
		return sqlengine.NewString(strings.ReplaceAll(s[1:len(s)-1], "''", "'")), nil
	case strings.ContainsAny(s, ".eE"):
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return sqlengine.Null(), fmt.Errorf("warehouse: bad staging float %q", s)
		}
		return sqlengine.NewFloat(f), nil
	default:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(s, 64)
			if ferr != nil {
				return sqlengine.Null(), fmt.Errorf("warehouse: bad staging field %q", s)
			}
			return sqlengine.NewFloat(f), nil
		}
		return sqlengine.NewInt(i), nil
	}
}

// unescapeField undoes encodeRow's escapes in one left-to-right pass, so
// an escaped backslash is never read as the start of another escape.
func unescapeField(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			i++
			switch c = s[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case 'r':
				c = '\r'
			}
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

func decodeRow(line string) (sqlengine.Row, error) {
	if line == "" {
		return nil, nil
	}
	fields := strings.Split(line, "\t")
	row := make(sqlengine.Row, len(fields))
	for i, f := range fields {
		v, err := decodeField(f)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// ---- Stage 1: sources -> warehouse ----

// ExtractNormalized reads an ntuple's normalized tables from src, pivots
// the tall values table back into wide events (the "transformation"
// matching the warehouse's denormalized schema), and writes staging rows
// to w. Returns bytes written and rows produced.
func (e *ETL) ExtractNormalized(src Queryer, cfg ntuple.Config, w io.Writer) (int64, int64, error) {
	evRS, err := src.Query("SELECT event_id, run FROM " + ntuple.EventsTableName(cfg.Name) + " ORDER BY event_id")
	if err != nil {
		return 0, 0, fmt.Errorf("warehouse: extract events: %w", err)
	}
	type wide struct {
		run  int64
		vals []sqlengine.Value
	}
	events := make(map[int64]*wide, len(evRS.Rows))
	order := make([]int64, 0, len(evRS.Rows))
	for _, r := range evRS.Rows {
		id := r[0].Int
		events[id] = &wide{run: r[1].Int, vals: make([]sqlengine.Value, cfg.NVar)}
		order = append(order, id)
	}
	valRS, err := src.Query("SELECT event_id, var_idx, val FROM " + ntuple.ValuesTableName(cfg.Name))
	if err != nil {
		return 0, 0, fmt.Errorf("warehouse: extract values: %w", err)
	}
	for _, r := range valRS.Rows {
		ev, ok := events[r[0].Int]
		if !ok {
			continue // orphan value row: skip, like a WHERE join would
		}
		idx := int(r[1].Int)
		if idx >= 0 && idx < cfg.NVar {
			ev.vals[idx] = r[2]
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var bytes, rows int64
	for _, id := range order {
		ev := events[id]
		row := make(sqlengine.Row, 0, 2+cfg.NVar)
		row = append(row, sqlengine.NewInt(id), sqlengine.NewInt(ev.run))
		row = append(row, ev.vals...)
		n, err := encodeRow(w, row)
		if err != nil {
			return bytes, rows, err
		}
		bytes += n
		rows++
	}
	e.charge(bytes)
	return bytes, rows, nil
}

// LoadStaged reads staging rows from r and inserts them into target table
// in batches: typed bulk inserts when the target is a local engine
// (BulkInserter), batched INSERTs rendered in the target's dialect
// otherwise.
func (e *ETL) LoadStaged(target Execer, dialect *sqlengine.Dialect, table string, r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var batch []sqlengine.Row
	var loaded, bytes int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := execInsert(target, dialect, table, batch); err != nil {
			return fmt.Errorf("warehouse: load into %s: %w", table, err)
		}
		loaded += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		bytes += int64(len(line)) + 1
		row, err := decodeRow(line)
		if err != nil {
			return loaded, err
		}
		if row == nil {
			continue
		}
		batch = append(batch, row)
		if len(batch) >= e.batch() {
			if err := flush(); err != nil {
				return loaded, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return loaded, err
	}
	if err := flush(); err != nil {
		return loaded, err
	}
	e.charge(bytes)
	return loaded, nil
}

// insertSQL renders a batched INSERT in the target dialect.
func insertSQL(d *sqlengine.Dialect, table string, rows []sqlengine.Row) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(d.QuoteIdent(table))
	sb.WriteString(" VALUES ")
	for i, row := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.SQLLiteral())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// RunStage1 performs the full measured Stage-1 transfer for one ntuple:
// extract+transform from the normalized source, stage, and load into the
// warehouse fact table. The warehouse star schema must already exist (see
// InitWarehouse).
func (e *ETL) RunStage1(src Queryer, cfg ntuple.Config, wh Execer, whDialect *sqlengine.Dialect) (StageResult, error) {
	return e.transfer(
		func(w io.Writer) (int64, int64, error) { return e.ExtractNormalized(src, cfg, w) },
		func(r io.Reader) (int64, error) {
			return e.LoadStaged(wh, whDialect, ntuple.FactTableName(cfg.Name), r)
		},
	)
}

// transfer runs extract then load, through a temp file (Staging) or a pipe
// (Direct), timing each phase.
func (e *ETL) transfer(extract func(io.Writer) (int64, int64, error), load func(io.Reader) (int64, error)) (StageResult, error) {
	var res StageResult
	if e.Staging {
		f, err := os.CreateTemp(e.TempDir, "gridrdb-stage-*.tsv")
		if err != nil {
			return res, err
		}
		defer os.Remove(f.Name())
		defer f.Close()

		start := time.Now()
		bw := bufio.NewWriter(f)
		bytes, rows, err := extract(bw)
		if err != nil {
			return res, err
		}
		if err := bw.Flush(); err != nil {
			return res, err
		}
		res.ExtractTime = time.Since(start)
		res.Bytes, res.Rows = bytes, rows

		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return res, err
		}
		start = time.Now()
		if _, err := load(bufio.NewReader(f)); err != nil {
			return res, err
		}
		res.LoadTime = time.Since(start)
		return res, nil
	}
	// Direct streaming: extract and load run concurrently over a pipe; the
	// whole transfer is charged to LoadTime (there is no separate staging
	// artifact), with ExtractTime reported as zero.
	pr, pw := io.Pipe()
	type exres struct {
		bytes, rows int64
		err         error
	}
	ch := make(chan exres, 1)
	start := time.Now()
	go func() {
		bw := bufio.NewWriter(pw)
		b, r, err := extract(bw)
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
		ch <- exres{b, r, err}
	}()
	_, lerr := load(pr)
	ex := <-ch
	if ex.err != nil {
		return res, ex.err
	}
	if lerr != nil {
		return res, lerr
	}
	res.LoadTime = time.Since(start)
	res.Bytes, res.Rows = ex.bytes, ex.rows
	return res, nil
}

// InitWarehouse creates the star schema for cfg on the warehouse and
// populates the run dimension.
func InitWarehouse(wh DB, whDialect *sqlengine.Dialect, cfg ntuple.Config) error {
	for _, ddl := range ntuple.StarDDL(cfg, whDialect) {
		if _, err := wh.Exec(ddl); err != nil {
			// The shared dim_run table may already exist when loading a
			// second ntuple into the same warehouse.
			if strings.Contains(err.Error(), "already exists") {
				continue
			}
			return fmt.Errorf("warehouse: init: %w", err)
		}
	}
	// Populate the run dimension in one batched insert. A unique-constraint
	// violation means some runs are already present (second ntuple sharing
	// the warehouse); only then retry row-at-a-time so the existing rows
	// are skipped individually.
	rows := ntuple.RunRows(cfg)
	dim := ntuple.DimRunTableName()
	if err := execInsert(wh, whDialect, dim, rows); err != nil {
		if !strings.Contains(err.Error(), "unique constraint") {
			return err
		}
		for _, row := range rows {
			if err := execInsert(wh, whDialect, dim, []sqlengine.Row{row}); err != nil {
				if strings.Contains(err.Error(), "unique constraint") {
					continue
				}
				return err
			}
		}
	}
	return nil
}

// ---- Stage 2: warehouse views -> data marts ----

// ViewDef is one read-only analysis view created over the warehouse
// (§4.2: "we created views on the data stored in the warehouse to provide
// read-only access for scientific analysis").
type ViewDef struct {
	Name string
	SQL  string // full SELECT text
}

// RunViews returns one view per detector run, the paper's natural
// partitioning for replicating subsets to tier sites.
func RunViews(cfg ntuple.Config, whDialect *sqlengine.Dialect) []ViewDef {
	var out []ViewDef
	fact := ntuple.FactTableName(cfg.Name)
	for i := 0; i < cfg.Runs; i++ {
		run := 100 + i
		cols := strings.Join(quoteAll(whDialect, ntuple.StarColumns(cfg)), ", ")
		out = append(out, ViewDef{
			Name: fmt.Sprintf("v_%s_run%d", cfg.Name, run),
			SQL: fmt.Sprintf("SELECT %s FROM %s WHERE %s = %d",
				cols, whDialect.QuoteIdent(fact), whDialect.QuoteIdent("run"), run),
		})
	}
	return out
}

func quoteAll(d *sqlengine.Dialect, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = d.QuoteIdent(n)
	}
	return out
}

// CreateViews installs view definitions on the warehouse.
func CreateViews(wh Execer, defs []ViewDef) error {
	for _, v := range defs {
		if _, err := wh.Exec(fmt.Sprintf("CREATE VIEW %s AS %s", v.Name, v.SQL)); err != nil {
			return fmt.Errorf("warehouse: create view %s: %w", v.Name, err)
		}
	}
	return nil
}

// ExtractView streams all rows of a warehouse view into w.
func (e *ETL) ExtractView(wh Queryer, view string, w io.Writer) (int64, int64, error) {
	rs, err := wh.Query("SELECT * FROM " + view)
	if err != nil {
		return 0, 0, fmt.Errorf("warehouse: extract view %s: %w", view, err)
	}
	var bytes, rows int64
	for _, row := range rs.Rows {
		n, err := encodeRow(w, row)
		if err != nil {
			return bytes, rows, err
		}
		bytes += n
		rows++
	}
	e.charge(bytes)
	return bytes, rows, nil
}

// Materialize replicates one warehouse view into a data mart as a real
// table (Stage 2): create the mart table in the mart's dialect, extract
// the view to the staging file, and load. The mart table inherits the
// fact-table column layout.
func (e *ETL) Materialize(wh Queryer, view string, cfg ntuple.Config, mart DB, martDialect *sqlengine.Dialect, martTable string) (StageResult, error) {
	intT := sqlengine.ColumnType{Kind: sqlengine.KindInt}
	fltT := sqlengine.ColumnType{Kind: sqlengine.KindFloat}
	cols := []sqlengine.ColumnDef{
		{Name: "event_id", Type: intT, PrimaryKey: true, NotNull: true},
		{Name: "run", Type: intT, NotNull: true},
	}
	for i := 0; i < cfg.NVar; i++ {
		cols = append(cols, sqlengine.ColumnDef{Name: ntuple.VarName(i), Type: fltT})
	}
	if _, err := mart.Exec(martDialect.CreateTableSQL(martTable, cols, nil)); err != nil {
		if !strings.Contains(err.Error(), "already exists") {
			return StageResult{}, fmt.Errorf("warehouse: create mart table %s: %w", martTable, err)
		}
	}
	res, err := e.transfer(
		func(w io.Writer) (int64, int64, error) { return e.ExtractView(wh, view, w) },
		func(r io.Reader) (int64, error) { return e.LoadStaged(mart, martDialect, martTable, r) },
	)
	if err == nil && e.OnRefresh != nil {
		e.OnRefresh(martTable)
	}
	return res, err
}
