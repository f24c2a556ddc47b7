package unity

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// integrateBatch is the scratch-load granularity: rows are pulled from an
// incremental producer and inserted into the integration engine this many
// at a time, so the memory held beyond the scratch tables themselves is
// one batch per in-flight load, never a second full copy of a partial
// result.
const integrateBatch = 256

// inferPrefixRows caps the kind-inference prefix of loadTableFromIter: a
// column that is NULL for this many rows stops holding the load's memory
// hostage and is typed as string (every value coerces to it). Without
// the cap an all-NULL column re-buffered the entire stream before the
// first insert, recreating exactly the unbounded materialization the
// iterator path exists to avoid.
const inferPrefixRows = 4 * integrateBatch

// specColumnDefs derives scratch column definitions from a table spec; an
// empty spec returns nil, selecting first-batch inference in
// loadTableFromIter.
func specColumnDefs(spec xspec.TableSpec) []sqlengine.ColumnDef {
	defs := make([]sqlengine.ColumnDef, 0, len(spec.Columns))
	for _, c := range spec.Columns {
		logical := strings.ToLower(c.Logical)
		if logical == "" {
			logical = strings.ToLower(c.Name)
		}
		defs = append(defs, sqlengine.ColumnDef{Name: logical, Type: sqlengine.ColumnType{Kind: kindFromName(c.Kind)}})
	}
	return defs
}

// loadTableFromIter streams one producer into a scratch table in
// integrateBatch-row batches, checking ctx between rows so a cancelled
// integration stops pulling promptly. defs may carry spec-derived column
// definitions; when empty they are inferred from the stream itself: rows
// are buffered until every column has yielded a non-null sample, the
// stream ends, or the prefix reaches inferPrefixRows — whichever comes
// first. Columns still unsampled at that point are typed as string, so
// an all-NULL (or very sparsely populated) column costs a bounded prefix
// instead of re-buffering the whole stream. The iterator is not closed
// here — callers own its lifecycle.
func loadTableFromIter(ctx context.Context, scratch *sqlengine.Engine, logical string, defs []sqlengine.ColumnDef, it sqlengine.RowIter) error {
	var prefix []sqlengine.Row
	eof := false
	if len(defs) == 0 {
		cols := it.Columns()
		if len(cols) == 0 {
			// Lazily-opened streams (remote cursor relays) learn their
			// columns only after a successful open; pull one row to force
			// it, so a failed open surfaces as its real transport error
			// rather than a misleading "produced no columns".
			row, err := it.Next()
			if err != nil && err != io.EOF {
				return err
			}
			if err == io.EOF {
				eof = true
			} else {
				prefix = append(prefix, row)
			}
			cols = it.Columns()
		}
		kinds := make([]sqlengine.Kind, len(cols))
		known := 0
		note := func(row sqlengine.Row) {
			for i := range kinds {
				if kinds[i] == sqlengine.KindNull && i < len(row) && !row[i].IsNull() {
					kinds[i] = row[i].Kind
					known++
				}
			}
		}
		for _, row := range prefix {
			note(row)
		}
		for !eof && known < len(cols) && len(prefix) < inferPrefixRows {
			if err := ctx.Err(); err != nil {
				return err
			}
			row, err := it.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			note(row)
			prefix = append(prefix, row)
		}
		defs = make([]sqlengine.ColumnDef, len(cols))
		for i, c := range cols {
			kind := kinds[i]
			if kind == sqlengine.KindNull {
				kind = sqlengine.KindString // never sampled: everything coerces to string
			}
			defs[i] = sqlengine.ColumnDef{Name: strings.ToLower(c), Type: sqlengine.ColumnType{Kind: kind}}
		}
	}
	if len(defs) == 0 {
		return fmt.Errorf("unity: table %q produced no columns", logical)
	}
	if _, err := scratch.Exec(sqlengine.DialectANSI.CreateTableSQL(logical, defs, nil)); err != nil {
		return fmt.Errorf("unity: scratch table %s: %w", logical, err)
	}
	// Flush the inference prefix in bounded chunks, releasing as we go.
	for len(prefix) > 0 {
		n := integrateBatch
		if n > len(prefix) {
			n = len(prefix)
		}
		if _, err := scratch.InsertRows(logical, prefix[:n]); err != nil {
			return fmt.Errorf("unity: scratch load %s: %w", logical, err)
		}
		prefix = prefix[n:]
	}
	batch := make([]sqlengine.Row, 0, integrateBatch)
	for !eof {
		batch = batch[:0]
		for len(batch) < integrateBatch {
			if err := ctx.Err(); err != nil {
				return err
			}
			row, err := it.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return err
			}
			batch = append(batch, row)
		}
		if len(batch) > 0 {
			if _, err := scratch.InsertRows(logical, batch); err != nil {
				return fmt.Errorf("unity: scratch load %s: %w", logical, err)
			}
		}
	}
	return nil
}
