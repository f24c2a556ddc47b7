package dataaccess

import (
	"context"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqlengine"
)

// rowErrorMember is an engine member holding t(id, d) with 2 000 rows,
// d = 0 at id 1 000 and 1 elsewhere, so rowErrorSQL fails at its row
// 1 000.
func rowErrorMember(t *testing.T, name string) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.NewEngine(name, sqlengine.DialectMySQL)
	if _, err := e.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, d BIGINT)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]sqlengine.Row, 2000)
	for i := range rows {
		d := int64(1)
		if i+1 == 1000 {
			d = 0
		}
		rows[i] = sqlengine.Row{sqlengine.NewInt(int64(i + 1)), sqlengine.NewInt(d)}
	}
	if _, err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

const rowErrorSQL = "SELECT id FROM t WHERE 10 / d > 0"

// TestMemberRowErrorMidStream: a member statement that fails at its row
// 1 000 of 2 000 delivers the 999 rows before it through a local cursor
// and through a peer relay, and the fetch that reaches the row is a
// FaultApplication carrying the engine's error (docs/WIRE.md §6.1).
// Afterwards no cursor is open on either server, nothing is in flight,
// and no goroutine is left behind. Fetch and relay pages of 111 rows end
// exactly at row 999.
func TestMemberRowErrorMidStream(t *testing.T) {
	const page = 111
	for _, remote := range []bool{false, true} {
		name := map[bool]string{false: "local cursor", true: "peer relay"}[remote]
		t.Run(name, func(t *testing.T) {
			checkLeaks := leaktest.Check(t)
			p := newRelayPair(t, Config{Name: "re-host", MaxInFlight: 4},
				Config{Name: "re-fwd", MaxInFlight: 4, RelayFetchSize: page}, "", "", 0)
			defer p.close()
			owner := p.fwd
			if remote {
				owner = p.host
			}
			addEngineMart(t, owner, rowErrorMember(t, map[bool]string{false: "rowerr_local", true: "rowerr_peer"}[remote]))

			info, err := p.fwd.OpenCursor(context.Background(), rowErrorSQL)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			next := int64(1)
			for f := 0; f < 999/page; f++ {
				rows, done, err := p.fwd.FetchCursor(info.ID, page)
				if err != nil {
					t.Fatalf("fetch %d, before row 1 000: %v", f, err)
				}
				if len(rows) != page || done {
					t.Fatalf("fetch %d: %d rows done=%v, want %d not done", f, len(rows), done, page)
				}
				for _, r := range rows {
					if r[0].Int != next {
						t.Fatalf("fetch %d: row id %d, want %d", f, r[0].Int, next)
					}
					next++
				}
			}
			_, _, err = p.fwd.FetchCursor(info.ID, page)
			if err == nil || !strings.Contains(err.Error(), "sqlengine: division by zero") {
				t.Fatalf("the fetch reaching row 1 000: %v, want the engine's division by zero", err)
			}
			if f := clarens.FaultFor(err); f.Code != clarens.FaultApplication {
				t.Errorf("fault %d (%s), want FaultApplication", f.Code, f.Message)
			}
			if p.fwd.CloseCursor(info.ID) {
				t.Error("the failed cursor was still registered")
			}
			waitFor(t, 2*time.Second, func() bool { return p.fwd.CursorCount() == 0 && p.host.CursorCount() == 0 })
			for _, s := range []*Service{p.fwd, p.host} {
				if n := s.LoadStats().InFlight; n != 0 {
					t.Errorf("%s: %d admitted calls in flight", s.cfg.Name, n)
				}
			}
			p.close()
			checkLeaks()
		})
	}
}
