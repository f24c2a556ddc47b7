package sqlengine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatementReadsPinnedCatalog: a SELECT reads the catalog published
// when it started — its outer scan, the seek of an IN subquery over the
// same table and a view over it — however long it runs. Writes from
// another session, DDL included, neither wait for it nor change what it
// answers.
func TestStatementReadsPinnedCatalog(t *testing.T) {
	e := NewEngine("pinned", DialectANSI)
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
	mustExec(t, e, "CREATE VIEW tv AS SELECT id, v FROM t WHERE v > 15")
	const q = "SELECT id, v FROM t WHERE id IN (SELECT id FROM t WHERE id = 2) OR v IN (SELECT v FROM tv)"
	want := rowKeys(mustQuery(t, e, q).Rows)

	// The SELECT pauses at its first table read, its outer scan.
	paused, resume := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	var mu sync.Mutex
	var paths []string
	e.db.pathHook = func(table, path string) {
		mu.Lock()
		paths = append(paths, table+":"+path)
		mu.Unlock()
		if first.CompareAndSwap(false, true) {
			close(paused)
			<-resume
		}
	}
	type answer struct {
		rs  *ResultSet
		err error
	}
	got := make(chan answer, 1)
	go func() {
		rs, err := e.Query(q)
		got <- answer{rs, err}
	}()
	select {
	case <-paused:
	case <-time.After(5 * time.Second):
		t.Fatal("the SELECT never read a table")
	}

	writes := []string{
		"DELETE FROM t WHERE id = 3",
		"INSERT INTO t VALUES (5, 50), (6, 20)",
		"UPDATE t SET v = v + 1 WHERE id = 4",
		"ALTER TABLE t ADD COLUMN w INTEGER DEFAULT 7",
		"CREATE INDEX t_v ON t (v)",
		"DROP TABLE t",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO t VALUES (2, 30)",
	}
	done := make(chan error, 1)
	go func() {
		s := e.NewSession()
		for _, sql := range writes {
			if _, _, err := s.Run(sql); err != nil {
				done <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			close(resume)
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(resume)
		t.Fatal("writes did not complete while a SELECT was paused mid-statement")
	}
	close(resume)

	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	if keys := rowKeys(a.rs.Rows); !slices.Equal(keys, want) {
		t.Errorf("the paused SELECT answered %v, want %v, the rows when it started", keys, want)
	}
	mu.Lock()
	if !slices.Contains(paths, "t:scan") || !slices.Contains(paths, "t:seek") || len(paths) < 3 {
		t.Errorf("table reads %v, want an outer scan, a seek and the view's read of t", paths)
	}
	mu.Unlock()
	if after := rowKeys(mustQuery(t, e, q).Rows); slices.Equal(after, want) {
		t.Errorf("a SELECT after the writes still answers %v", after)
	}
}

// TestSeeksDuringAppends: seeks over an index that appends write in
// place, from several goroutines while the appends run, each answer
// exactly one version: the rows of a prefix of the batches, no more.
func TestSeeksDuringAppends(t *testing.T) {
	e := NewEngine("appends", DialectANSI)
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	const batches, size = 200, 16
	var wg sync.WaitGroup
	var done atomic.Bool
	defer func() {
		done.Store(true)
		wg.Wait()
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				rs, err := e.Query("SELECT id FROM t WHERE v = 3")
				if err != nil {
					t.Error(err)
					return
				}
				for i, row := range rs.Rows {
					if row[0].Int != int64(3+5*i) {
						t.Errorf("v = 3 found ids %v, want 3, 8, 13, ... in order", rowKeys(rs.Rows))
						return
					}
				}
			}
		}()
	}
	for b := range batches {
		rows := make([]Row, size)
		for i := range rows {
			id := int64(b*size + i)
			rows[i] = Row{NewInt(id), NewInt(id % 5)}
		}
		if _, err := e.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	if rs := mustQuery(t, e, "SELECT id FROM t WHERE v = 3"); len(rs.Rows) != batches*size/5 {
		t.Errorf("v = 3 found %d rows after the appends, want %d", len(rs.Rows), batches*size/5)
	}
}

// BenchmarkEngineSeek is the member side of point_lookup: a primary-key
// seek of one 8-column row in a 20 000-row table loaded, as the ETL loads
// a mart, in 128-row InsertRows batches. The parallel leg seeks from
// GOMAXPROCS goroutines at once. Profile it with
//
//	go test -run xxx -bench EngineSeek -cpuprofile cpu.out ./internal/sqlengine
func BenchmarkEngineSeek(b *testing.B) {
	seek := seekBench(b)
	b.Run("serial", func(b *testing.B) { seekSerial(b, seek) })
	b.Run("parallel", func(b *testing.B) { seekParallel(b, seek) })
}

// seekBench loads BenchmarkEngineSeek's table and returns its seek.
func seekBench(b *testing.B) func(id int64) error {
	const n = 20000
	e := NewEngine("seekbench", DialectANSI)
	if _, err := e.Exec("CREATE TABLE ev (event_id INTEGER PRIMARY KEY, run INTEGER, " +
		"v0 DOUBLE, v1 DOUBLE, v2 DOUBLE, v3 DOUBLE, v4 DOUBLE, v5 DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	batch := make([]Row, 0, 128)
	for i := range n {
		row := Row{NewInt(int64(i)), NewInt(int64(100 + i%4))}
		for j := range 6 {
			row = append(row, NewFloat(float64(i*7+j)/3.0001))
		}
		if batch = append(batch, row); len(batch) == cap(batch) || i == n-1 {
			if _, err := e.InsertRows("ev", batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	const q = "SELECT event_id, run, v0, v1, v2, v3, v4, v5 FROM ev WHERE event_id = ?"
	return func(id int64) error {
		rs, err := e.Query(q, NewInt(id%n))
		if err == nil && len(rs.Rows) != 1 {
			err = fmt.Errorf("event %d: %d rows", id%n, len(rs.Rows))
		}
		return err
	}
}

func seekSerial(b *testing.B, seek func(int64) error) {
	b.ReportAllocs()
	for id := int64(0); b.Loop(); id += 7919 {
		if err := seek(id); err != nil {
			b.Fatal(err)
		}
	}
}

func seekParallel(b *testing.B, seek func(int64) error) {
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for id := next.Add(1) * 104729; pb.Next(); id += 7919 {
			if err := seek(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
