package unity

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// sleepDriver backs a member database that, like a real one, does its
// work before its first response: every query sleeps for delay and then
// serves rows (k, v) for k = 1..3, of the two columns those the query
// names — or fails, when fail is set. closed counts the cursors the
// federation released.
type sleepDriver struct {
	delay  time.Duration
	fail   bool
	closed atomic.Int64
}

func (d *sleepDriver) Open(string) (driver.Conn, error) { return &sleepConn{d: d}, nil }

type sleepConn struct{ d *sleepDriver }

func (c *sleepConn) Prepare(string) (driver.Stmt, error) {
	return nil, errors.New("sleepdrv: prepare unsupported")
}
func (c *sleepConn) Close() error              { return nil }
func (c *sleepConn) Begin() (driver.Tx, error) { return nil, errors.New("sleepdrv: no transactions") }

func (c *sleepConn) QueryContext(ctx context.Context, query string, _ []driver.NamedValue) (driver.Rows, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(c.d.delay):
	}
	if c.d.fail {
		return nil, errors.New("sleepdrv: source down")
	}
	rows := &sleepRows{d: c.d}
	for _, col := range []string{"k", "v"} {
		if strings.Contains(query, `"`+col+`"`) {
			rows.cols = append(rows.cols, col)
		}
	}
	return rows, nil
}

type sleepRows struct {
	d    *sleepDriver
	cols []string
	k    int64
}

func (r *sleepRows) Columns() []string { return r.cols }
func (r *sleepRows) Close() error      { r.d.closed.Add(1); return nil }
func (r *sleepRows) Next(dest []driver.Value) error {
	if r.k == 3 {
		return io.EOF
	}
	r.k++
	for i, col := range r.cols {
		dest[i] = r.k
		if col == "v" {
			dest[i] = 10 * r.k
		}
	}
	return nil
}

var sleepDriverSeq atomic.Int64

// sleepFederation joins two sleeping sources: table sl on one, sr on the
// other, both (k, v).
func sleepFederation(t *testing.T, delay time.Duration, failRight bool) (*Federation, *sleepDriver, *sleepDriver) {
	t.Helper()
	f, err := Open(&xspec.UpperSpec{Name: "sleepfed"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	left, right := &sleepDriver{delay: delay}, &sleepDriver{delay: delay, fail: failRight}
	for table, d := range map[string]*sleepDriver{"sl": left, "sr": right} {
		name := fmt.Sprintf("sleepdrv%d", sleepDriverSeq.Add(1))
		sql.Register(name, d)
		spec := &xspec.LowerSpec{Name: "src_" + name, Dialect: "ansi", Tables: []xspec.TableSpec{{
			Name: table, Logical: table,
			Columns: []xspec.ColumnSpec{
				{Name: "k", Logical: "k", Kind: "INTEGER"},
				{Name: "v", Logical: "v", Kind: "INTEGER"},
			},
		}}}
		if err := f.AddSource(xspec.SourceRef{Name: spec.Name, URL: "sleep://" + name, Driver: name}, spec); err != nil {
			t.Fatal(err)
		}
	}
	return f, left, right
}

const sleepJoin = "SELECT l.k, r.v FROM sl l JOIN sr r ON l.k = r.k"

// TestStreamPlanOpensInputsScattered: the pipelined join opens its two
// source cursors through the scatter-gather, so a drained join pays the
// slower source, not the sum of both — and Parallel=false, stock Unity's
// behaviour, pays the sum for the same rows.
func TestStreamPlanOpensInputsScattered(t *testing.T) {
	const delay = 150 * time.Millisecond
	f, _, _ := sleepFederation(t, delay, false)
	plan, err := f.PlanQuery(sleepJoin)
	if err != nil {
		t.Fatal(err)
	}
	open := func() (time.Duration, *sqlengine.ResultSet) {
		t.Helper()
		start := time.Now()
		it, ex, err := f.ExecuteStreamOp(context.Background(), plan)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Operator != "pipelined hash-join(build=right)" {
			t.Fatalf("operator = %q, want the pipelined hash join", ex.Operator)
		}
		rs, err := sqlengine.Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		return took, rs
	}
	par, parRows := open()
	f.Parallel = false
	seq, seqRows := open()
	if par < delay || par >= 2*delay {
		t.Errorf("scattered open took %s, want about the slower source (%s), under the sum (%s)", par, delay, 2*delay)
	}
	if seq < 2*delay {
		t.Errorf("sequential open took %s, want at least the sum of the sources (%s)", seq, 2*delay)
	}
	if got, want := rowStrings(parRows.Rows), rowStrings(seqRows.Rows); len(got) != 3 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scattered rows %q, sequential rows %q, want the same 3", got, want)
	}
}

// TestStreamPlanOpenFailureClosesSiblings: when one source fails to open,
// the cursor its sibling opened meanwhile is closed, not stranded — a
// member database's cursor and a peer's stream alike.
func TestStreamPlanOpenFailureClosesSiblings(t *testing.T) {
	f, left, _ := sleepFederation(t, 20*time.Millisecond, true)
	peer := &peerStub{eng: sqlengine.NewEngine("peer", sqlengine.DialectANSI)}
	if err := peer.eng.ExecScript("CREATE TABLE pl (k BIGINT, v BIGINT); INSERT INTO pl VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	f.OpenPeer = peer.open
	plan, err := f.PlanQuery(sleepJoin)
	if err != nil {
		t.Fatal(err)
	}
	peerPlan, err := f.PlanQueryAt("SELECT l.k, r.v FROM pl l JOIN sr r ON l.k = r.k", map[string]PeerTable{"pl": {Location: "peer://pl"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{true, false} {
		f.Parallel = parallel
		before, peerBefore := left.closed.Load(), peer.closed
		if _, _, err := f.ExecuteStreamOp(context.Background(), plan); err == nil {
			t.Fatalf("parallel=%v: open succeeded with a failing source", parallel)
		}
		if got := left.closed.Load() - before; got != 1 {
			t.Errorf("parallel=%v: healthy source's cursor closed %d times, want 1", parallel, got)
		}
		if _, _, err := f.ExecuteStreamOp(context.Background(), peerPlan); err == nil {
			t.Fatalf("parallel=%v: open succeeded with a failing source beside a peer", parallel)
		}
		if got := peer.closed - peerBefore; got != 1 {
			t.Errorf("parallel=%v: peer stream closed %d times, want 1", parallel, got)
		}
	}
}
