package dataaccess

// Tests for admission control and per-tenant QoS: the queue-with-deadline
// must distinguish "your deadline expired" (FaultCancelled) from "the
// server shed you" (FaultOverloaded), never leak an in-flight slot across
// the grant/abandon race, and shed before any parsing or backend work.
// Session quotas must refuse loudly at the cap, release reservations on
// every cursor exit path (including mid-stream trips over a federated
// relay), and reset when the session ends.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/leaktest"
	"gridrdb/internal/sqlengine"
)

// admService builds a one-mart service with the given admission config.
// Callers must Close it themselves before their leak check runs —
// t.Cleanup would fire after the deferred leaktest verify, with the
// service's pool and janitor goroutines still alive.
func admService(t *testing.T, mart, table string, rows int, cfg Config) *Service {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = mart + "-svc"
	}
	s := New(cfg)
	_, spec := mkMart(t, mart, sqlengine.DialectMySQL, table, rows)
	addMart(t, s, mart, spec, "gridsql-mysql")
	return s
}

// holdSlot opens an undrained stream, pinning one in-flight slot until
// the returned release func runs.
func holdSlot(t *testing.T, s *Service, table string) func() {
	t.Helper()
	sr, err := s.QueryStreamContext(context.Background(), "SELECT event_id FROM "+table)
	if err != nil {
		t.Fatalf("holdSlot: %v", err)
	}
	return func() { sr.Close() }
}

// waitQueued polls until the gate reports n queued waiters.
func waitQueued(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ls := s.LoadStats(); ls.Queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (now %d)", n, s.LoadStats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionQueuedCtxExpiryIsCancelled: a queued waiter whose own
// context expires gets the cancellation fault class promptly — not
// FaultOverloaded, which would tell the client to back off and retry
// something it chose to abandon — and its slot claim is not leaked.
func TestAdmissionQueuedCtxExpiryIsCancelled(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admctx", "adm_ev", 50, Config{
		MaxInFlight: 1, AdmissionQueue: 4, AdmissionTimeout: 10 * time.Second,
	})
	defer s.Close()
	release := holdSlot(t, s, "adm_ev")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.QueryContext(ctx, "SELECT event_id FROM adm_ev")
	waited := time.Since(start)
	if err == nil {
		t.Fatal("queued waiter should fail when its context expires")
	}
	if isOverloaded(err) {
		t.Fatalf("caller's own deadline must not surface as overload: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if f := clarens.FaultFor(err); f.Code != clarens.FaultCancelled {
		t.Fatalf("wire fault = %d, want FaultCancelled (%d)", f.Code, clarens.FaultCancelled)
	}
	if waited > 2*time.Second {
		t.Fatalf("abandoned waiter took %v to return; should track its 50ms deadline", waited)
	}

	// The abandoned waiter must not have consumed the slot: once the
	// holder releases, the gate admits immediately again.
	release()
	if _, err := s.QueryContext(context.Background(), "SELECT event_id FROM adm_ev"); err != nil {
		t.Fatalf("slot leaked by abandoned waiter: %v", err)
	}
	ls := s.LoadStats()
	if ls.Cancelled != 1 {
		t.Errorf("cancelled count = %d, want 1", ls.Cancelled)
	}
}

// TestAdmissionQueueDeadlineSheds: a waiter that outlives the queue
// deadline is shed with FaultOverloaded — the retryable refusal.
func TestAdmissionQueueDeadlineSheds(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admdl", "adm_ev2", 50, Config{
		MaxInFlight: 1, AdmissionQueue: 4, AdmissionTimeout: 60 * time.Millisecond,
	})
	defer s.Close()
	release := holdSlot(t, s, "adm_ev2")
	defer release()

	start := time.Now()
	_, err := s.QueryContext(context.Background(), "SELECT event_id FROM adm_ev2")
	waited := time.Since(start)
	if !isOverloaded(err) {
		t.Fatalf("want FaultOverloaded after queue deadline, got %v", err)
	}
	if waited < 50*time.Millisecond || waited > 2*time.Second {
		t.Errorf("shed after %v, want ~60ms queue deadline", waited)
	}
	if ls := s.LoadStats(); ls.Shed != 1 {
		t.Errorf("shed count = %d, want 1", ls.Shed)
	}
}

// TestAdmissionShedDoesNoWork: a request refused at a full queue is shed
// before any parsing, planning, or backend contact — provable by sending
// garbage SQL, which comes back as overload (not a parse error) while
// the gate is saturated, and as a parse error once it is not. The cursor
// path likewise registers nothing when its stream open is shed.
func TestAdmissionShedDoesNoWork(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admwork", "adm_ev3", 50, Config{
		MaxInFlight: 1, AdmissionQueue: -1, // no queue: saturation sheds instantly
	})
	defer s.Close()
	release := holdSlot(t, s, "adm_ev3")

	start := time.Now()
	_, err := s.QueryContext(context.Background(), "THIS IS NOT SQL AT ALL")
	if !isOverloaded(err) {
		t.Fatalf("saturated gate should shed before parsing; got %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("queue-full shed took %v, want immediate", waited)
	}

	if _, err := s.OpenCursor(context.Background(), "SELECT event_id FROM adm_ev3"); !isOverloaded(err) {
		t.Fatalf("cursor open should shed at the gate; got %v", err)
	}
	if n := s.CursorCount(); n != 0 {
		t.Errorf("shed cursor open left %d cursors registered", n)
	}

	release()
	_, err = s.QueryContext(context.Background(), "THIS IS NOT SQL AT ALL")
	if err == nil || isOverloaded(err) {
		t.Fatalf("unsaturated gate should reach the parser: %v", err)
	}
}

// TestAdmissionWeightedDrain: with the slot holder gone, a backlog of
// weight-2 and weight-1 tenants drains in stride order — the heavier
// class roughly twice as often, the lighter one never starved.
func TestAdmissionWeightedDrain(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admwt", "adm_ev4", 20, Config{
		MaxInFlight: 1, AdmissionQueue: 8, AdmissionTimeout: 10 * time.Second,
		TenantWeights: map[string]int{"alice": 2},
	})
	defer s.Close()
	release := holdSlot(t, s, "adm_ev4")

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	spawn := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := WithCaller(context.Background(), tenant, "")
				if _, err := s.QueryContext(ctx, "SELECT event_id FROM adm_ev4 WHERE run = 101"); err != nil {
					t.Errorf("%s: %v", tenant, err)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
			}()
		}
	}
	spawn("alice", 4)
	spawn("bob", 2)
	waitQueued(t, s, 6)

	release()
	wg.Wait()
	if len(order) != 6 {
		t.Fatalf("completions = %d, want 6", len(order))
	}
	count := func(prefix []string, tenant string) int {
		n := 0
		for _, x := range prefix {
			if x == tenant {
				n++
			}
		}
		return n
	}
	// Expected stride sequence is alice bob alice alice bob alice; allow
	// scheduling slack but require the proportional shape.
	if count(order[:3], "alice") < 2 {
		t.Errorf("weight-2 tenant got %d of first 3 grants, want >= 2 (order %v)", count(order[:3], "alice"), order)
	}
	if count(order[:5], "bob") < 1 {
		t.Errorf("weight-1 tenant starved across first 5 grants (order %v)", order)
	}
}

// TestSessionCursorQuota: opens past the per-session cap refuse with
// FaultOverloaded, a close returns the reservation, EndSession resets
// the budget, and sessionless callers are not quota-tracked.
func TestSessionCursorQuota(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admcq", "adm_ev5", 50, Config{SessionMaxCursors: 2})
	defer s.Close()
	ctx := WithCaller(context.Background(), "alice", "sess-a")
	q := "SELECT event_id FROM adm_ev5"

	c1, err := s.OpenCursor(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.OpenCursor(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenCursor(ctx, q); !isOverloaded(err) {
		t.Fatalf("third open should trip the 2-cursor quota; got %v", err)
	}

	s.CloseCursor(c1.ID)
	c3, err := s.OpenCursor(ctx, q)
	if err != nil {
		t.Fatalf("close should have returned the reservation: %v", err)
	}

	// Ending the session resets its budget even with cursors open (the
	// session is gone; its replacement starts fresh).
	s.endSession("sess-a")
	c4, err := s.OpenCursor(ctx, q)
	if err != nil {
		t.Fatalf("EndSession should reset the cursor budget: %v", err)
	}

	// A caller with no session is not quota-tracked.
	anon := context.Background()
	var anonCursors []*CursorInfo
	for i := 0; i < 4; i++ {
		ci, err := s.OpenCursor(anon, q)
		if err != nil {
			t.Fatalf("sessionless open %d: %v", i, err)
		}
		anonCursors = append(anonCursors, ci)
	}

	for _, ci := range append(anonCursors, c2, c3, c4) {
		s.CloseCursor(ci.ID)
	}
	if n := s.CursorCount(); n != 0 {
		t.Errorf("%d cursors left open", n)
	}
	if got := s.LoadStats(); got.Tenants != nil {
		for _, tl := range got.Tenants {
			if tl.Tenant == "alice" && tl.QuotaDeniedCursors != 1 {
				t.Errorf("alice quota denials = %d, want 1", tl.QuotaDeniedCursors)
			}
		}
	}
}

// TestSessionByteQuotaTripsMidStream: a session streaming past its byte
// budget gets FaultOverloaded mid-stream — after real rows flowed — and
// the producing query's resources are released. EndSession resets the
// budget so the next login streams again.
func TestSessionByteQuotaTripsMidStream(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admbq", "adm_ev6", 200, Config{SessionMaxBytes: 512})
	defer s.Close()
	ctx := WithCaller(context.Background(), "bob", "sess-b")
	q := "SELECT event_id, run, e_tot FROM adm_ev6"

	sr, err := s.QueryStreamContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	err = sr.ForEach(func(sqlengine.Row) error { rows++; return nil })
	if !isOverloaded(err) {
		t.Fatalf("stream should trip the byte quota; got %v after %d rows", err, rows)
	}
	if rows == 0 {
		t.Error("quota tripped before any row was delivered; budget should admit the early rows")
	}
	if rows >= 200 {
		t.Error("all 200 rows flowed; quota never tripped mid-stream")
	}

	// The budget is per-session lifetime: the same session is refused on
	// its next stream almost immediately.
	sr2, err := s.QueryStreamContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr2.ForEach(func(sqlengine.Row) error { return nil }); !isOverloaded(err) {
		t.Fatalf("exhausted session streamed again without tripping: %v", err)
	}

	// EndSession resets the meter: rows flow again.
	s.endSession("sess-b")
	sr3, err := s.QueryStreamContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rows = 0
	err = sr3.ForEach(func(sqlengine.Row) error { rows++; return nil })
	if !isOverloaded(err) || rows == 0 {
		t.Fatalf("reset session should stream until the budget trips again (rows=%d err=%v)", rows, err)
	}
}

// TestSessionByteQuotaReleasesRelayCursor: a mid-stream quota trip on a
// federated relay closes the remote cursor — the peer's registry drains
// to zero and neither server strands a goroutine.
func TestSessionByteQuotaReleasesRelayCursor(t *testing.T) {
	defer leaktest.Check(t)()
	p := newRelayPair(t, Config{}, Config{SessionMaxBytes: 512}, "admrelay", "adm_rev", 500)
	defer p.close()

	ctx := WithCaller(context.Background(), "carol", "sess-r")
	sr, err := p.fwd.QueryStreamContext(ctx, "SELECT event_id, run, e_tot FROM adm_rev")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	err = sr.ForEach(func(sqlengine.Row) error { rows++; return nil })
	if !isOverloaded(err) {
		t.Fatalf("relayed stream should trip the byte quota; got %v after %d rows", err, rows)
	}

	// The relay must release the remote cursor promptly, not wait for
	// the peer's TTL reaper.
	deadline := time.Now().Add(5 * time.Second)
	for p.host.CursorCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer still holds %d cursors after the quota trip", p.host.CursorCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionFaultCodeOnTheWire: a shed query reaches an XML-RPC
// client as fault code 105 (FaultOverloaded) — distinct from 104
// (FaultCancelled) — and per-session quotas key on the login session,
// so the same user's second login gets a fresh cursor budget.
func TestAdmissionFaultCodeOnTheWire(t *testing.T) {
	defer leaktest.Check(t)()
	// Capacity 2 so the later cursor-budget phase can hold one cursor
	// (cursors pin in-flight slots) while a fresh session opens another.
	s := admService(t, "admwire", "adm_ev7", 50, Config{
		MaxInFlight: 2, AdmissionQueue: -1, SessionMaxCursors: 1,
	})
	defer s.Close()
	front := clarens.NewServer(false)
	front.AddUser("alice", "pw")
	s.RegisterMethods(front)
	url, err := front.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	s.SetURL(url)

	c := clarens.NewClient(url)
	if err := c.LoginContext(context.Background(), "alice", "pw"); err != nil {
		t.Fatal(err)
	}

	release := holdSlot(t, s, "adm_ev7")
	release2 := holdSlot(t, s, "adm_ev7")
	_, err = c.Call("dataaccess.query", "SELECT event_id FROM adm_ev7")
	var f *clarens.Fault
	if !errors.As(err, &f) || f.Code != clarens.FaultOverloaded {
		t.Fatalf("want wire fault %d, got %v", clarens.FaultOverloaded, err)
	}
	release()
	release2()

	// Quota is per login session: the first session exhausts its single
	// cursor, a second login for the same user starts fresh.
	res, err := c.Call("system.cursor.open", "SELECT event_id FROM adm_ev7")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := res.(map[string]interface{})["cursor"].(string)
	_, err = c.Call("system.cursor.open", "SELECT event_id FROM adm_ev7")
	if !errors.As(err, &f) || f.Code != clarens.FaultOverloaded {
		t.Fatalf("cursor quota over the wire: want fault %d, got %v", clarens.FaultOverloaded, err)
	}
	c2 := clarens.NewClient(url)
	if err := c2.LoginContext(context.Background(), "alice", "pw"); err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Call("system.cursor.open", "SELECT event_id FROM adm_ev7")
	if err != nil {
		t.Fatalf("fresh session should have a fresh cursor budget: %v", err)
	}
	id2, _ := res2.(map[string]interface{})["cursor"].(string)
	if _, err := c.Call("system.cursor.close", id); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Call("system.cursor.close", id2); err != nil {
		t.Fatal(err)
	}
}

// TestExplainReportsAdmissionOutcome: system.explain carries the gate's
// answer for a query arriving now — admit, queue, or would-shed — and
// explain itself is never gated, so a saturated server still explains.
func TestExplainReportsAdmissionOutcome(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admex", "adm_ev8", 50, Config{
		MaxInFlight: 1, AdmissionQueue: 1, AdmissionTimeout: 10 * time.Second,
	})
	defer s.Close()
	q := "SELECT event_id FROM adm_ev8"

	m, err := s.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m["admission"] != "admit" {
		t.Errorf("idle gate: admission = %v, want admit", m["admission"])
	}

	release := holdSlot(t, s, "adm_ev8")
	m, err = s.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m["admission"] != "queue" {
		t.Errorf("saturated gate: admission = %v, want queue", m["admission"])
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.QueryContext(context.Background(), q); err != nil {
			t.Errorf("queued waiter: %v", err)
		}
	}()
	waitQueued(t, s, 1)
	m, err = s.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m["admission"] != "would-shed" {
		t.Errorf("full queue: admission = %v, want would-shed", m["admission"])
	}
	release()
	wg.Wait()

	// Without a gate there is no admission key at all.
	s2 := admService(t, "admex2", "adm_ev9", 5, Config{})
	defer s2.Close()
	m, err = s2.Explain(context.Background(), "SELECT event_id FROM adm_ev9")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["admission"]; ok {
		t.Error("gateless service should not report an admission outcome")
	}
}

// TestSlowQueryRecordsAdmissionOutcome: slow-query captures say where
// the time went — an "immediate" admit means the backend was slow, a
// "queued Nms" means the gate was.
func TestSlowQueryRecordsAdmissionOutcome(t *testing.T) {
	defer leaktest.Check(t)()
	s := admService(t, "admslow", "adm_ev10", 20, Config{
		MaxInFlight:        2,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		Logger:             slog.New(slog.DiscardHandler),
	})
	defer s.Close()
	if _, err := s.QueryContext(context.Background(), "SELECT event_id FROM adm_ev10"); err != nil {
		t.Fatal(err)
	}
	entries := s.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow entry captured")
	}
	if got := entries[0].Explain["admission"]; got != "immediate" {
		t.Errorf("slow entry admission = %v, want immediate", got)
	}
}

// TestOverloadShedsCleanly drives a gated server at twice its capacity
// with the whole traffic mix — cached point queries, drained streams,
// paged cursors, relays to a peer — and holds the degradation contract:
// the excess is refused, every refusal is the retryable FaultOverloaded
// and nothing else, and when the storm ends no slot, cursor or goroutine
// is left behind on either server.
func TestOverloadShedsCleanly(t *testing.T) {
	defer leaktest.Check(t)()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		defer tr.CloseIdleConnections()
	}
	p := newRelayPair(t, Config{Name: "ov-host"}, Config{
		Name: "ov-fwd", CacheSize: 64, RelayFetchSize: 64,
		MaxInFlight: 4, AdmissionQueue: 2, AdmissionTimeout: 250 * time.Millisecond,
	}, "mart_ov_remote", "ov_remote", 400)
	defer p.close()
	_, spec := mkMart(t, "mart_ov_local", sqlengine.DialectMySQL, "ov_local", 400)
	addMart(t, p.fwd, "mart_ov_local", spec, "gridsql-mysql")

	ctx := context.Background()
	drain := func(sql string) error {
		sr, err := p.fwd.QueryStreamContext(ctx, sql)
		if err != nil {
			return err
		}
		return sr.ForEach(func(sqlengine.Row) error { return nil })
	}
	// One closed-loop client: op i of worker w. Distinct literals keep the
	// gated ops out of the cache; the cached op repeats one text.
	op := func(w, i int) error {
		switch (w + i) % 4 {
		case 0:
			_, err := p.fwd.QueryContext(ctx, "SELECT run, e_tot FROM ov_local WHERE run = 101")
			return err
		case 1:
			return drain(fmt.Sprintf("SELECT event_id, run, e_tot FROM ov_local WHERE event_id > %d", w*1000+i%100))
		case 2:
			info, err := p.fwd.OpenCursor(ctx, fmt.Sprintf("SELECT event_id FROM ov_local WHERE event_id > %d", w*1000+i%100))
			if err != nil {
				return err
			}
			defer p.fwd.CloseCursor(info.ID)
			for done := false; !done; {
				if _, done, err = p.fwd.FetchCursor(info.ID, 100); err != nil {
					return err
				}
			}
			return nil
		default:
			return drain(fmt.Sprintf("SELECT event_id, e_tot FROM ov_remote WHERE event_id > %d", w*1000+i%100))
		}
	}

	var shed, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// ~300 ms of load, extended (bounded) until the gate has shed.
			for i := 0; time.Since(start) < 300*time.Millisecond ||
				(shed.Load() == 0 && time.Since(start) < 5*time.Second); i++ {
				switch err := op(w, i); {
				case err == nil:
					completed.Add(1)
				case isOverloaded(err):
					shed.Add(1)
				default:
					t.Errorf("worker %d op %d: refused with something other than FaultOverloaded: %v", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if shed.Load() == 0 || completed.Load() == 0 {
		t.Fatalf("8 clients on 4 slots + 2 queued: shed=%d completed=%d, want both > 0", shed.Load(), completed.Load())
	}
	// Clients may see more refusals than the gate issued: callers coalesced
	// onto a shed cache fill share its fault.
	if ls := p.fwd.LoadStats(); ls.Shed == 0 || ls.Shed > shed.Load() {
		t.Errorf("gate counted %d sheds, clients saw %d", ls.Shed, shed.Load())
	}
	// The peer's cursors close asynchronously behind the relays' last rows.
	left := func() [4]int {
		return [4]int{p.fwd.LoadStats().InFlight, p.fwd.CursorCount(), p.host.LoadStats().InFlight, p.host.CursorCount()}
	}
	for deadline := time.Now().Add(5 * time.Second); left() != [4]int{} && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if l := left(); l != [4]int{} {
		t.Fatalf("left behind: fwd in-flight %d, fwd cursors %d, host in-flight %d, host cursors %d; want none", l[0], l[1], l[2], l[3])
	}
}

// endSession forgets a session's quota state, as the idle sweep does once
// the session has been quiet for sessionQuotaTTL.
func (s *Service) endSession(session string) {
	s.sessions.mu.Lock()
	delete(s.sessions.sessions, session)
	s.sessions.mu.Unlock()
}

// isOverloaded reports whether an error is a load-shed response — a
// FaultOverloaded fault, possibly wrapped by forwarding layers.
func isOverloaded(err error) bool {
	var f *clarens.Fault
	return errors.As(err, &f) && f.Code == clarens.FaultOverloaded
}
