package clarens

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSessionSweep is the regression test for the session-store leak:
// expired sessions used to be deleted only when their own token was
// re-presented, so abandoned tokens accumulated forever under login
// churn. Now every login (and every sweepEvery-th check) sweeps.
func TestSessionSweep(t *testing.T) {
	s, c := startServer(t, false)
	s.AddUser("alice", "pw")

	// Login churn: many sessions, none ever used again.
	const logins = 50
	for i := 0; i < logins; i++ {
		if err := c.LoginContext(context.Background(), "alice", "pw"); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.SessionCount(); n != logins {
		t.Fatalf("sessions after churn = %d, want %d", n, logins)
	}

	// Let them all expire, then log in once more: the login-time sweep
	// must shrink the map to just the fresh session.
	s.mu.Lock()
	s.now = func() time.Time { return time.Now().Add(sessionTTL + time.Minute) }
	s.mu.Unlock()
	if err := c.LoginContext(context.Background(), "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	if n := s.SessionCount(); n != 1 {
		t.Fatalf("sessions after expiry+login = %d, want 1 (sweep did not run)", n)
	}
}

// TestSessionSweepOnChecks: the amortized sweep also fires from
// checkSession alone, without any further logins.
func TestSessionSweepOnChecks(t *testing.T) {
	s, c := startServer(t, false)
	s.AddUser("alice", "pw")
	for i := 0; i < 10; i++ {
		if err := c.LoginContext(context.Background(), "alice", "pw"); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	s.now = func() time.Time { return time.Now().Add(sessionTTL + time.Minute) }
	s.mu.Unlock()

	// Drive > sweepEvery failed checks with a bogus token.
	for i := 0; i < sweepEvery+1; i++ {
		s.checkSession("no-such-token")
	}
	if n := s.SessionCount(); n != 0 {
		t.Fatalf("sessions after %d checks = %d, want 0", sweepEvery+1, n)
	}
}

// TestRequestTimeoutFault: a method overrunning the server's per-request
// deadline fails with the distinct FaultCancelled code, which
// IsCancelled recognizes.
func TestRequestTimeoutFault(t *testing.T) {
	s, c := startServer(t, true)
	s.SetRequestTimeout(50 * time.Millisecond)
	s.Register("test.slow", func(ctx context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return "done", nil
		}
	})
	t0 := time.Now()
	_, err := c.Call("test.slow")
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("call took %s, want prompt fault at the 50ms deadline", elapsed)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultCancelled {
		t.Fatalf("err = %v, want fault %d", err, FaultCancelled)
	}
	if !IsCancelled(err) {
		t.Fatalf("IsCancelled(%v) = false", err)
	}
}

// TestClientDisconnectCancelsMethod: abandoning CallContext aborts the
// HTTP request, and the server-side method context is cancelled.
func TestClientDisconnectCancelsMethod(t *testing.T) {
	s, c := startServer(t, true)
	started := make(chan struct{}, 1)
	observed := make(chan struct{}, 1)
	s.Register("test.hang", func(ctx context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			observed <- struct{}{}
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return "done", nil
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err := c.CallContext(ctx, "test.hang")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want canceled", err)
	}
	if !IsCancelled(err) {
		t.Fatalf("IsCancelled(%v) = false", err)
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("server method never observed the client disconnect")
	}
}

// TestFaultForMapping pins the error->fault translation table.
func TestFaultForMapping(t *testing.T) {
	if f := FaultFor(context.Canceled); f.Code != FaultCancelled {
		t.Errorf("canceled -> %d", f.Code)
	}
	if f := FaultFor(context.DeadlineExceeded); f.Code != FaultCancelled {
		t.Errorf("deadline -> %d", f.Code)
	}
	if f := FaultFor(errors.New("boom")); f.Code != FaultApplication {
		t.Errorf("app error -> %d", f.Code)
	}
	orig := &Fault{Code: FaultAuth, Message: "no"}
	if f := FaultFor(orig); f != orig {
		t.Error("explicit faults must pass through unchanged")
	}
	// A wrapped fault keeps its code but the annotated message, so a
	// forwarding hop's "forward to <url>:" context reaches the client.
	annotated := fmt.Errorf("dataaccess: forward to http://jc2: %w", orig)
	if f := FaultFor(annotated); f.Code != FaultAuth || !strings.Contains(f.Message, "forward to http://jc2") {
		t.Errorf("wrapped fault -> (%d, %q)", f.Code, f.Message)
	}
	// Wrapped context errors still map (the common case: fmt.Errorf
	// chains from deep inside a backend).
	wrapped := errors.Join(errors.New("unity: source x"), context.DeadlineExceeded)
	if f := FaultFor(wrapped); f.Code != FaultCancelled {
		t.Errorf("wrapped deadline -> %d", f.Code)
	}
}

// SessionCount reports the number of stored (not necessarily unexpired)
// sessions.
func (s *Server) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}
