package sqlengine

import (
	"context"
	"fmt"
	"io"
	"time"
)

// hashJoinIter is the pipelined hash-join operator. It drains the build
// side into an in-memory table during schema() (so the expensive phase
// runs before the first row is requested), then probes one row at a
// time: time-to-first-row is build-side cost plus one probe row, and
// memory is bounded by the build side — or, past the byte budget, by a
// Grace-style partitioned spill: build and probe rows are hash-
// partitioned to temp files and each partition pair is joined in memory
// in turn. The residual is re-evaluated on every key match, and outer
// joins null-pad unmatched probe rows: LEFT joins probe the left input,
// RIGHT joins the right one. A step without equi-keys hashes every row to
// the one empty key, which makes it a nested loop over the build side.
type hashJoinIter struct {
	ctx         context.Context
	j           *StreamJoin
	left, right relIter
	env         *evalEnv
	opts        StreamOptions
	stats       *StreamStats

	sch       rowSchema // combined: left columns then right columns
	fr        *frame    // the residual's, over sch
	residual  evalFn    // j.On compiled over sch; nil without one
	buildIdx  []int     // key ordinals in the build input
	probeIdx  []int     // key ordinals in the probe input
	buildLeft bool
	outer     bool // LEFT or RIGHT: unmatched probe rows are emitted padded

	prepared bool
	err      error
	closed   bool

	// In-memory mode.
	ht *joinTable
	// key holds the join key of the row at hand, as appendIndexKey
	// encodes it; reused, so keying a row allocates nothing.
	key []byte

	// Spill mode.
	sd         *spillDir
	buildParts []*spillWriter
	probeParts []*spillWriter
	part       int
	partReader *spillReader
	inSpill    bool
	probeDone  bool

	pending []Row
}

// joinTable is a hash join's in-memory build side. It holds the build
// rows flat, in build order, and one string per distinct join key; each
// key's rows are chained from its first row through next, so a key's
// matches come back in build order. Looking a key up from a reused buffer
// allocates nothing.
type joinTable struct {
	idx  map[string]int32 // key -> its first row
	rows []Row
	next []int32         // per row: the next row with its key, or -1
	tail map[int32]int32 // first row -> last row, for keys with more than one row
}

func newJoinTable() *joinTable {
	return &joinTable{idx: map[string]int32{}, tail: map[int32]int32{}}
}

func (t *joinTable) add(key []byte, row Row) {
	i := int32(len(t.rows))
	t.rows, t.next = append(t.rows, row), append(t.next, -1)
	first, ok := t.idx[string(key)]
	if !ok {
		t.idx[string(key)] = i
		return
	}
	last, ok := t.tail[first]
	if !ok {
		last = first
	}
	t.next[last] = i
	t.tail[first] = i
}

// hashJoinFanout is the Grace partition count. One recursion level only:
// a partition that still exceeds the budget is joined in memory anyway
// (the budget bounds the common case; pathological single-key skew
// degrades to holding that partition whole).
const hashJoinFanout = 8

func newHashJoinIter(ctx context.Context, j *StreamJoin, left, right relIter, env *evalEnv, opts StreamOptions) *hashJoinIter {
	stats := opts.Stats
	if stats == nil {
		stats = &StreamStats{}
	}
	return &hashJoinIter{
		ctx: ctx, j: j, left: left, right: right, env: env, opts: opts, stats: stats,
		buildLeft: j.Kind == JoinRight || j.BuildLeft && j.inner(),
		outer:     j.Kind == JoinLeft || j.Kind == JoinRight,
	}
}

func (h *hashJoinIter) build() relIter {
	if h.buildLeft {
		return h.left
	}
	return h.right
}

func (h *hashJoinIter) probe() relIter {
	if h.buildLeft {
		return h.right
	}
	return h.left
}

// combined assembles the output row in left-then-right column order.
func (h *hashJoinIter) combined(probeRow, buildRow Row) Row {
	out := make(Row, 0, len(h.sch))
	if h.buildLeft {
		out = append(out, buildRow...)
		out = append(out, probeRow...)
	} else {
		out = append(out, probeRow...)
		out = append(out, buildRow...)
	}
	return out
}

// padProbe null-pads the build side of an outer join's unmatched probe
// row.
func (h *hashJoinIter) padProbe(probeRow Row) Row {
	out := make(Row, len(h.sch))
	if h.buildLeft {
		copy(out[len(out)-len(probeRow):], probeRow)
	} else {
		copy(out, probeRow)
	}
	return out
}

func (h *hashJoinIter) schema() (rowSchema, error) {
	if err := h.prepare(); err != nil {
		return nil, err
	}
	return h.sch, nil
}

// prepare binds both sides and drains the build input, spilling past the
// budget. It runs once; errors are sticky.
func (h *hashJoinIter) prepare() error {
	if h.prepared {
		return h.err
	}
	h.prepared = true
	h.err = h.doPrepare()
	return h.err
}

func (h *hashJoinIter) doPrepare() error {
	bsch, err := h.build().schema()
	if err != nil {
		return err
	}
	buildQ, buildKeys, probeQ, probeKeys := h.j.rq, h.j.RightKeys, h.j.lq, h.j.LeftKeys
	if h.buildLeft {
		buildQ, buildKeys, probeQ, probeKeys = probeQ, probeKeys, buildQ, buildKeys
	}
	bIdx, err := resolveKeys(bsch, buildQ, buildKeys)
	if err != nil {
		return err
	}
	h.buildIdx = bIdx

	budget := h.opts.budget()
	h.ht = newJoinTable()
	var bytes int64
	for {
		if err := ctxErr(h.ctx); err != nil {
			return err
		}
		row, err := h.build().next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		h.stats.BuildRows++
		if !h.keyOf(row, h.buildIdx) {
			continue // NULL key: can never match
		}
		if h.sd == nil {
			h.ht.add(h.key, row)
			bytes += RowBytes(row)
			h.stats.BuildBytes = bytes
			if budget > 0 && bytes > budget {
				if err := h.startSpill(); err != nil {
					return err
				}
			}
			continue
		}
		if err := h.spillRow(h.buildParts, row); err != nil {
			return err
		}
	}

	// Bind the probe side only after the build is consumed, so lazy
	// probe producers (relay cursors) are opened as late as possible.
	psch, err := h.probe().schema()
	if err != nil {
		return err
	}
	pIdx, err := resolveKeys(psch, probeQ, probeKeys)
	if err != nil {
		return err
	}
	h.probeIdx = pIdx

	lsch, _ := h.left.schema()
	rsch, _ := h.right.schema()
	h.sch = make(rowSchema, 0, len(lsch)+len(rsch))
	h.sch = append(h.sch, lsch...)
	h.sch = append(h.sch, rsch...)
	var fns []evalFn
	h.fr, fns = h.env.compile(h.sch, false, h.j.On)
	h.residual = fns[0]

	if h.sd != nil {
		h.inSpill = true
		// Finish build partition files; probe rows are partitioned
		// incrementally by next() so unmatched LEFT rows stream out
		// during partitioning instead of buffering.
		start := time.Now()
		for _, sw := range h.buildParts {
			if err := sw.finish(); err != nil {
				return err
			}
		}
		h.stats.SpillNanos += time.Since(start).Nanoseconds()
		pw, err := h.makeParts("probe")
		if err != nil {
			return err
		}
		h.probeParts = pw
	}
	return nil
}

// startSpill switches the build phase to Grace partitioning: the rows
// accumulated so far are redistributed into partition files and the
// in-memory table is dropped.
func (h *hashJoinIter) startSpill() error {
	start := time.Now()
	sd, err := newSpillDir(h.opts.TempDir, h.stats)
	if err != nil {
		return err
	}
	h.sd = sd
	bw, err := h.makeParts("build")
	if err != nil {
		return err
	}
	h.buildParts = bw
	for _, row := range h.ht.rows {
		h.keyOf(row, h.buildIdx)
		if err := h.spillRow(h.buildParts, row); err != nil {
			return err
		}
	}
	h.ht = nil
	h.stats.BuildBytes = 0
	h.stats.SpillNanos += time.Since(start).Nanoseconds()
	return nil
}

func (h *hashJoinIter) makeParts(kind string) ([]*spillWriter, error) {
	parts := make([]*spillWriter, hashJoinFanout)
	for i := range parts {
		sw, err := h.sd.newWriter(fmt.Sprintf("%s-p%d", kind, i))
		if err != nil {
			return nil, err
		}
		parts[i] = sw
		h.stats.SpillPartitions++
	}
	return parts, nil
}

// keyOf encodes row's join key (the columns at idx) into h.key; false
// when a key column is NULL, which never matches.
func (h *hashJoinIter) keyOf(row Row, idx []int) bool {
	h.key = h.key[:0]
	for _, j := range idx {
		if row[j].IsNull() {
			return false
		}
		h.key = appendIndexKey(h.key, row[j])
	}
	return true
}

// partitionOf is the Grace partition of a join key: its 32-bit FNV-1a
// hash modulo the fanout.
func partitionOf(key []byte) int {
	hash := uint32(2166136261)
	for _, c := range key {
		hash = (hash ^ uint32(c)) * 16777619
	}
	return int(hash % hashJoinFanout)
}

// spillRow writes row to the partition of its key, already in h.key.
func (h *hashJoinIter) spillRow(parts []*spillWriter, row Row) error {
	start := time.Now()
	err := parts[partitionOf(h.key)].writeRow(row)
	h.stats.SpillNanos += time.Since(start).Nanoseconds()
	return err
}

func (h *hashJoinIter) next() (Row, error) {
	if err := h.prepare(); err != nil {
		return nil, err
	}
	for {
		if len(h.pending) > 0 {
			row := h.pending[0]
			h.pending = h.pending[1:]
			return row, nil
		}
		if h.err != nil {
			return nil, h.err
		}
		var row Row
		var err error
		if !h.inSpill {
			row, err = h.nextInMem()
		} else {
			row, err = h.nextSpill()
		}
		if err != nil {
			if err != io.EOF {
				h.err = err
			}
			return nil, err
		}
		if row != nil {
			return row, nil
		}
	}
}

// nextInMem advances the in-memory probe by one input row; it returns
// (nil, nil) when the row produced no output (matches go to pending).
func (h *hashJoinIter) nextInMem() (Row, error) {
	prow, err := h.probe().next()
	if err != nil {
		return nil, err
	}
	return h.matchRow(prow)
}

// matchRow joins one probe row against the build table, queuing matches.
func (h *hashJoinIter) matchRow(prow Row) (Row, error) {
	matched := false
	if h.keyOf(prow, h.probeIdx) {
		i, ok := h.ht.idx[string(h.key)]
		for ; ok && i >= 0; i = h.ht.next[i] {
			crow := h.combined(prow, h.ht.rows[i])
			if h.residual != nil {
				h.fr.row = crow
				v, err := h.residual(h.fr)
				if err != nil {
					return nil, err
				}
				if !decides(v, true) {
					continue
				}
			}
			h.pending = append(h.pending, crow)
			matched = true
		}
	}
	if h.outer && !matched {
		return h.padProbe(prow), nil
	}
	return nil, nil
}

// nextSpill drives the Grace phases: partition the probe input (emitting
// NULL-key LEFT rows immediately), then join partition pairs in turn.
func (h *hashJoinIter) nextSpill() (Row, error) {
	if !h.probeDone {
		if err := ctxErr(h.ctx); err != nil {
			return nil, err
		}
		prow, err := h.probe().next()
		if err == io.EOF {
			start := time.Now()
			for _, sw := range h.probeParts {
				if err := sw.finish(); err != nil {
					return nil, err
				}
			}
			h.stats.SpillNanos += time.Since(start).Nanoseconds()
			h.probeDone = true
			h.part = -1
			h.ht = nil
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		if !h.keyOf(prow, h.probeIdx) {
			if h.outer {
				return h.padProbe(prow), nil
			}
			return nil, nil
		}
		return nil, h.spillRow(h.probeParts, prow)
	}

	// Partition-pair join.
	for {
		if h.partReader == nil {
			h.part++
			if h.part >= hashJoinFanout {
				return nil, io.EOF
			}
			if err := h.loadPartition(h.part); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		prow, err := h.partReader.readRow()
		h.stats.SpillNanos += time.Since(start).Nanoseconds()
		if err == io.EOF {
			h.partReader.close()
			h.partReader = nil
			h.ht = nil
			continue
		}
		if err != nil {
			return nil, err
		}
		return h.matchRow(prow)
	}
}

// loadPartition reads one build partition into memory and opens the
// matching probe partition for streaming.
func (h *hashJoinIter) loadPartition(p int) error {
	if err := ctxErr(h.ctx); err != nil {
		return err
	}
	start := time.Now()
	defer func() { h.stats.SpillNanos += time.Since(start).Nanoseconds() }()
	br, err := openSpill(h.buildParts[p].path)
	if err != nil {
		return err
	}
	defer br.close()
	h.ht = newJoinTable()
	for {
		row, err := br.readRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		h.keyOf(row, h.buildIdx)
		h.ht.add(h.key, row)
	}
	pr, err := openSpill(h.probeParts[p].path)
	if err != nil {
		return err
	}
	h.partReader = pr
	return nil
}

func (h *hashJoinIter) close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	err := h.left.close()
	if e := h.right.close(); err == nil {
		err = e
	}
	h.partReader.close()
	h.partReader = nil
	if e := h.sd.remove(); err == nil {
		err = e
	}
	h.ht = nil
	h.pending = nil
	return err
}
