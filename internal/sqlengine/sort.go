package sqlengine

import (
	"container/heap"
	"context"
	"io"
	"sort"
	"time"
)

// sortIter implements ORDER BY: a stable sort on keys that index the
// projected row. Under the byte budget it is an in-memory stable sort;
// past it, sorted runs spill to temp files and a k-way merge streams them
// back, with the original arrival index as the final tiebreaker to keep
// the merge stable. width, when set, trims the hidden key columns past it
// off every row it emits; fail, when set, is returned once a first row
// arrives.
type sortIter struct {
	ctx   context.Context
	in    RowIter
	keys  []sortKey
	width int
	fail  error
	opts  StreamOptions
	stats *StreamStats

	prepared bool
	err      error
	closed   bool

	rows []Row // in-memory path
	pos  int

	sd      *spillDir
	runs    []*spillWriter
	merge   *runHeap
	seq     int64
	bufSeq  []int64
	bufSize int64
}

func newSortIter(ctx context.Context, in RowIter, keys []sortKey, width int, fail error, opts StreamOptions) *sortIter {
	stats := opts.Stats
	if stats == nil {
		stats = &StreamStats{}
	}
	return &sortIter{ctx: ctx, in: in, keys: keys, width: width, fail: fail, opts: opts, stats: stats}
}

func (s *sortIter) Columns() []string { return s.in.Columns() }

func (s *sortIter) less(a, b Row, aSeq, bSeq int64) bool {
	for _, k := range s.keys {
		c := Compare(a[k.idx], b[k.idx])
		if c == 0 {
			continue
		}
		if k.desc {
			return c > 0
		}
		return c < 0
	}
	return aSeq < bSeq
}

func (s *sortIter) prepare() error {
	if s.prepared {
		return s.err
	}
	s.prepared = true
	s.err = s.doPrepare()
	return s.err
}

func (s *sortIter) doPrepare() error {
	budget := s.opts.budget()
	for {
		if err := ctxErr(s.ctx); err != nil {
			return err
		}
		row, err := s.in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if s.fail != nil {
			return s.fail
		}
		s.rows = append(s.rows, row)
		s.bufSeq = append(s.bufSeq, s.seq)
		s.seq++
		s.bufSize += RowBytes(row)
		if budget > 0 && s.bufSize > budget {
			if err := s.flushRun(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) == 0 {
		s.sortRows()
		return nil
	}
	if len(s.rows) > 0 {
		if err := s.flushRun(); err != nil {
			return err
		}
	}
	return s.openMerge()
}

// sortRows stable-sorts the in-memory buffer by keys then arrival order.
func (s *sortIter) sortRows() {
	type keyed struct {
		row Row
		seq int64
	}
	ks := make([]keyed, len(s.rows))
	for i := range s.rows {
		ks[i] = keyed{row: s.rows[i], seq: s.bufSeq[i]}
	}
	sort.SliceStable(ks, func(i, j int) bool { return s.less(ks[i].row, ks[j].row, ks[i].seq, ks[j].seq) })
	for i := range ks {
		s.rows[i] = ks[i].row
		s.bufSeq[i] = ks[i].seq
	}
}

// flushRun sorts the current buffer and writes it as one run file. Each
// spilled row is prefixed with its arrival index so the merge can break
// key ties in arrival order.
func (s *sortIter) flushRun() error {
	start := time.Now()
	defer func() { s.stats.SpillNanos += time.Since(start).Nanoseconds() }()
	if s.sd == nil {
		sd, err := newSpillDir(s.opts.TempDir, s.stats)
		if err != nil {
			return err
		}
		s.sd = sd
	}
	s.sortRows()
	sw, err := s.sd.newWriter("run")
	if err != nil {
		return err
	}
	s.stats.SpillRuns++
	for i, row := range s.rows {
		tagged := make(Row, 0, len(row)+1)
		tagged = append(tagged, NewInt(s.bufSeq[i]))
		tagged = append(tagged, row...)
		if err := sw.writeRow(tagged); err != nil {
			return err
		}
	}
	if err := sw.finish(); err != nil {
		return err
	}
	s.runs = append(s.runs, sw)
	s.rows = s.rows[:0]
	s.bufSeq = s.bufSeq[:0]
	s.bufSize = 0
	return nil
}

// openMerge opens every run and seeds the k-way merge heap.
func (s *sortIter) openMerge() error {
	start := time.Now()
	defer func() { s.stats.SpillNanos += time.Since(start).Nanoseconds() }()
	s.merge = &runHeap{s: s}
	for _, run := range s.runs {
		sr, err := openSpill(run.path)
		if err != nil {
			s.merge.closeAll()
			return err
		}
		src := &runSource{r: sr}
		if err := src.advance(); err != nil && err != io.EOF {
			s.merge.closeAll()
			sr.close()
			return err
		}
		if src.row != nil {
			s.merge.items = append(s.merge.items, src)
		} else {
			sr.close()
		}
	}
	heap.Init(s.merge)
	return nil
}

func (s *sortIter) Next() (Row, error) {
	if err := s.prepare(); err != nil {
		return nil, err
	}
	if s.merge == nil {
		if s.pos >= len(s.rows) {
			return nil, io.EOF
		}
		row := s.rows[s.pos]
		s.pos++
		return s.trim(row), nil
	}
	if len(s.merge.items) == 0 {
		return nil, io.EOF
	}
	src := s.merge.items[0]
	row := src.row
	if err := src.advance(); err != nil && err != io.EOF {
		s.err = err
		return nil, err
	}
	if src.row == nil {
		src.r.close()
		heap.Pop(s.merge)
	} else {
		heap.Fix(s.merge, 0)
	}
	return s.trim(row), nil
}

func (s *sortIter) trim(row Row) Row {
	if s.width == 0 {
		return row
	}
	return append(Row(nil), row[:s.width]...)
}

func (s *sortIter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.in.Close()
	if s.merge != nil {
		s.merge.closeAll()
	}
	if e := s.sd.remove(); err == nil {
		err = e
	}
	s.rows = nil
	return err
}

// runSource is one run file in the merge, holding its current row.
type runSource struct {
	r   *spillReader
	row Row
	seq int64
}

// advance reads the next tagged row, splitting off the arrival index.
func (rs *runSource) advance() error {
	tagged, err := rs.r.readRow()
	if err != nil {
		rs.row = nil
		return err
	}
	rs.seq = tagged[0].Int
	rs.row = tagged[1:]
	return nil
}

// runHeap is the k-way merge priority queue over run sources.
type runHeap struct {
	s     *sortIter
	items []*runSource
}

func (h *runHeap) Len() int { return len(h.items) }
func (h *runHeap) Less(i, j int) bool {
	return h.s.less(h.items[i].row, h.items[j].row, h.items[i].seq, h.items[j].seq)
}
func (h *runHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *runHeap) Push(x interface{}) { h.items = append(h.items, x.(*runSource)) }
func (h *runHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

func (h *runHeap) closeAll() {
	for _, src := range h.items {
		src.r.close()
	}
	h.items = nil
}
