package unity

import (
	"context"
	"errors"
	"testing"

	"gridrdb/internal/leaktest"
)

// TestQueryContextCancelled is the regression test for the scatter-gather
// drain path: a context cancelled before (or while) the workers run must
// surface ctx.Err(), never a nil-result integration panic.
func TestQueryContextCancelled(t *testing.T) {
	f := buildFederation(t)
	// Snapshot after the federation is up: its sql.DB pools close in
	// t.Cleanup, which runs after this deferred check. The query path
	// itself must strand nothing.
	defer leaktest.Check(t)()
	q := "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run"

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// The same plan still executes on a live context afterwards.
	rs, err := f.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows after retry")
	}
}

// TestQueryContextCancelledSequential covers the one-wide (sequential)
// path too.
func TestQueryContextCancelledSequential(t *testing.T) {
	f := buildFederation(t)
	defer leaktest.Check(t)()
	f.MaxParallel = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run"
	if _, err := f.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
