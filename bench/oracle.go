package main

// The answer oracle: every mart table is loaded into one reference
// sqlengine.Engine, and each distinct query's expected row count and
// order-independent checksum come from plain Engine.Query on it — the
// simplest execution path, sharing no routing, federation, cache or wire
// code with the system under test.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"gridrdb/internal/sqlengine"
)

// answer is what a query must return: how many rows, and the wrapping sum
// of their row hashes (independent of row order).
type answer struct {
	rows int
	sum  uint64
}

// rowHash hashes one row cell by cell, kind-tagged, floats by their bits:
// the XML and binary codecs both round-trip values exactly, so equal rows
// hash equal on both sides of the wire.
func rowHash(row sqlengine.Row) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, v := range row {
		buf[0] = byte(v.Kind)
		switch v.Kind {
		case sqlengine.KindInt:
			binary.LittleEndian.PutUint64(buf[1:], uint64(v.Int))
			h.Write(buf[:])
		case sqlengine.KindFloat:
			binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v.Float))
			h.Write(buf[:])
		default:
			h.Write(buf[:1])
			h.Write([]byte(v.String()))
		}
	}
	return h.Sum64()
}

// add folds rows into the answer; the checksum only if asked, since
// hashing every row of every op would be client work the window measures.
func (a *answer) add(rows []sqlengine.Row, checksum bool) {
	a.rows += len(rows)
	if checksum {
		for _, r := range rows {
			a.sum += rowHash(r)
		}
	}
}

// reference is the oracle's engine: one database holding a copy of every
// mart table.
type reference struct {
	eng *sqlengine.Engine
}

// newReference copies every mart table of d into a fresh engine.
func newReference(d *deployment) (*reference, error) {
	eng := sqlengine.NewEngine("oracle", sqlengine.DialectANSI)
	for table, mart := range d.marts {
		rs, err := mart.Query("SELECT * FROM " + mart.Dialect().QuoteIdent(table))
		if err != nil {
			return nil, fmt.Errorf("oracle: read %s: %w", table, err)
		}
		defs := make([]string, len(rs.Columns))
		for i, c := range rs.Columns {
			switch {
			case i == 0:
				defs[i] = c + " BIGINT PRIMARY KEY"
			case i == 1:
				defs[i] = c + " BIGINT"
			default:
				defs[i] = c + " DOUBLE"
			}
		}
		if _, err := eng.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", table, strings.Join(defs, ", "))); err != nil {
			return nil, fmt.Errorf("oracle: create %s: %w", table, err)
		}
		if _, err := eng.InsertRows(table, rs.Rows); err != nil {
			return nil, fmt.Errorf("oracle: load %s: %w", table, err)
		}
	}
	return &reference{eng: eng}, nil
}

// answers runs each query on the reference engine.
func (r *reference) answers(queries []string) ([]answer, error) {
	out := make([]answer, len(queries))
	for i, q := range queries {
		rs, err := r.eng.Query(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q, err)
		}
		out[i].add(rs.Rows, true)
	}
	return out, nil
}

// ranged is the oracle for a workload whose distinct queries are all one
// base query restricted to a contiguous event_id range: the base query
// (ordered by event_id, first column) runs once on the reference engine,
// and the answer for the range starting at row i with n rows is the slice
// [i, i+n) — count n, checksum a difference of prefix sums.
type ranged struct {
	ids    []int64  // event_id of each base row, ascending
	prefix []uint64 // prefix[i] = sum of rowHash over base rows [0, i)
}

func (r *reference) ranged(baseSQL string) (*ranged, error) {
	rs, err := r.eng.Query(baseSQL)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", baseSQL, err)
	}
	rg := &ranged{ids: make([]int64, len(rs.Rows)), prefix: make([]uint64, len(rs.Rows)+1)}
	for i, row := range rs.Rows {
		if row[0].Kind != sqlengine.KindInt || (i > 0 && row[0].Int <= rg.ids[i-1]) {
			return nil, fmt.Errorf("oracle: %s: row %d is not in ascending event_id order", baseSQL, i)
		}
		rg.ids[i] = row[0].Int
		rg.prefix[i+1] = rg.prefix[i] + rowHash(row)
	}
	return rg, nil
}

// answer returns the expected result of the base query restricted to
// event ids [ids[start], ids[start+n-1]].
func (rg *ranged) answer(start, n int) answer {
	return answer{rows: n, sum: rg.prefix[start+n] - rg.prefix[start]}
}
