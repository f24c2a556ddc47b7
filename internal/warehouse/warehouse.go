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
// The staging file holds binary row records (sqlengine.RecordWriter): each
// row as the row frame's cells, which keep every value exactly.
// The paper calls this staging "a performance bottleneck"; Direct mode
// (the paper's proposed fix) streams rows without the intermediate file
// and is used by the staging ablation benchmark.
package warehouse

import (
	"fmt"
	"io"
	"os"
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

// ---- Stage 1: sources -> warehouse ----

// ExtractNormalized reads an ntuple's normalized tables from src, pivots
// the tall values table back into wide events (the "transformation"
// matching the warehouse's denormalized schema), and writes staging rows
// to w as row records (sqlengine.RecordWriter). Returns bytes written and
// rows produced.
func (e *ETL) ExtractNormalized(src Queryer, cfg ntuple.Config, w io.Writer) (int64, int64, error) {
	evRS, err := src.Query("SELECT event_id, run FROM " + ntuple.EventsTableName(cfg.Name) + " ORDER BY event_id")
	if err != nil {
		return 0, 0, fmt.Errorf("warehouse: extract events: %w", err)
	}
	// One wide row per event, in event_id order; byID finds it for the
	// event's values.
	rows := make([]sqlengine.Row, len(evRS.Rows))
	byID := make(map[int64]sqlengine.Row, len(evRS.Rows))
	for i, r := range evRS.Rows {
		rows[i] = make(sqlengine.Row, 2+cfg.NVar)
		rows[i][0], rows[i][1] = sqlengine.NewInt(r[0].Int), sqlengine.NewInt(r[1].Int)
		byID[r[0].Int] = rows[i]
	}
	valRS, err := src.Query("SELECT event_id, var_idx, val FROM " + ntuple.ValuesTableName(cfg.Name))
	if err != nil {
		return 0, 0, fmt.Errorf("warehouse: extract values: %w", err)
	}
	for _, r := range valRS.Rows {
		row, ok := byID[r[0].Int]
		if !ok {
			continue // orphan value row: skip, like a WHERE join would
		}
		if idx := int(r[1].Int); idx >= 0 && idx < cfg.NVar {
			row[2+idx] = r[2]
		}
	}
	return e.writeStaged(w, rows)
}

// writeStaged writes rows to w as row records and charges their bytes.
func (e *ETL) writeStaged(w io.Writer, rows []sqlengine.Row) (int64, int64, error) {
	rw := sqlengine.NewRecordWriter(w)
	var bytes int64
	for _, row := range rows {
		n, err := rw.WriteRow(row)
		if err != nil {
			return bytes, 0, err
		}
		bytes += int64(n)
	}
	if err := rw.Flush(); err != nil {
		return bytes, 0, err
	}
	e.charge(bytes)
	return bytes, int64(len(rows)), nil
}

// LoadStaged reads staging row records from r and inserts them into target table
// in batches: typed bulk inserts when the target is a local engine
// (BulkInserter), batched INSERTs rendered in the target's dialect
// otherwise.
func (e *ETL) LoadStaged(target Execer, dialect *sqlengine.Dialect, table string, r io.Reader) (int64, error) {
	rr := sqlengine.NewRecordReader(r)
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
	for {
		row, n, err := rr.ReadRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return loaded, fmt.Errorf("warehouse: staging file: %w", err)
		}
		bytes += int64(n)
		batch = append(batch, row)
		if len(batch) >= e.batch() {
			if err := flush(); err != nil {
				return loaded, err
			}
		}
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

// transfer runs extract then load, timing each phase. With Staging, the
// rows go through a temp file of row records — the row frame's cells
// behind a length prefix, with no header, so the file is deleted once
// loaded; Direct mode streams them over a pipe instead.
func (e *ETL) transfer(extract func(io.Writer) (int64, int64, error), load func(io.Reader) (int64, error)) (StageResult, error) {
	var res StageResult
	if e.Staging {
		f, err := os.CreateTemp(e.TempDir, "gridrdb-stage-*.rows")
		if err != nil {
			return res, err
		}
		defer os.Remove(f.Name())
		defer f.Close()

		start := time.Now()
		bytes, rows, err := extract(f)
		if err != nil {
			return res, err
		}
		res.ExtractTime = time.Since(start)
		res.Bytes, res.Rows = bytes, rows

		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return res, err
		}
		start = time.Now()
		if _, err := load(f); err != nil {
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
		b, r, err := extract(pw)
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
	return e.writeStaged(w, rs.Rows)
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
