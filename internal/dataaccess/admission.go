package dataaccess

// Admission control and per-tenant QoS at the service edge: a weighted
// max-in-flight gate with a bounded queue-with-deadline, plus per-session
// quotas on open cursors and streamed bytes. One greedy tenant can no
// longer saturate the backend pool or the cursor registry: past the
// in-flight cap, arriving queries queue (FIFO within their tenant's
// weight class, stride-scheduled across classes so a weight-2 tenant
// drains twice as fast as a weight-1 tenant) until a slot frees, their
// deadline expires, or the queue itself is full — the last two shed the
// request with clarens.FaultOverloaded before any planning or backend
// work happens. Everything here runs on the caller's goroutine: the gate
// spawns nothing, and a shed request never touches a backend. A streamed
// query's ticket and byte quota are applied by its StreamResult, the one
// query edge (stream.go): the ticket is released at the terminal Next or
// at Close, and each delivered row is charged as it is handed over.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridrdb/internal/clarens"
)

// Admission-queue defaults (Config.AdmissionQueue / AdmissionTimeout
// select them with a zero value; negative values disable the feature).
const (
	// defaultAdmissionQueueFactor sizes the wait queue as a multiple of
	// MaxInFlight when Config.AdmissionQueue is zero.
	defaultAdmissionQueueFactor = 2
	// defaultAdmissionTimeout bounds a queued wait when
	// Config.AdmissionTimeout is zero: long enough to absorb a burst,
	// short enough that a saturated server sheds instead of stacking
	// waiters behind work it will never reach.
	defaultAdmissionTimeout = 5 * time.Second
)

// Session-quota table hygiene: entries for sessions that went idle are
// dropped by an amortized sweep on the request path (no janitor
// goroutine), mirroring the clarens session sweep.
const (
	sessionQuotaTTL      = time.Hour // matches the clarens login TTL
	sessionSweepEvery    = 64
	sessionSweepInterval = time.Minute
	anonymousTenant      = "(anonymous)"
)

// ---- caller identity ----

type callerKey struct{}

// CallerInfo identifies the principal behind a query for admission
// accounting: the tenant (authenticated user) for weight classes and
// per-tenant counters, and the session token for per-session quotas.
// Both may be empty (open servers, embedded callers).
type CallerInfo struct {
	Tenant  string
	Session string
}

// WithCaller attaches the calling principal to ctx. The RPC method layer
// applies it from the clarens CallContext; embedded callers may apply it
// directly to opt into per-session quotas.
func WithCaller(ctx context.Context, tenant, session string) context.Context {
	return context.WithValue(ctx, callerKey{}, CallerInfo{Tenant: tenant, Session: session})
}

// callerFrom returns the caller attached to ctx, or the zero CallerInfo.
// Context values survive both qcache's singleflight detachment and the
// cursor path's context.WithoutCancel, so the identity established at
// the RPC edge is visible wherever admission or quotas are checked.
func callerFrom(ctx context.Context) CallerInfo {
	ci, _ := ctx.Value(callerKey{}).(CallerInfo)
	return ci
}

// tenantOf maps a caller to its accounting tenant.
func (ci CallerInfo) tenantOf() string {
	if ci.Tenant == "" {
		return anonymousTenant
	}
	return ci.Tenant
}

// ---- errors ----

// errShed builds the load-shed fault. The code rides the error chain, so
// the RPC edge faults with it verbatim and errors.As finds the
// *clarens.Fault even through "forward to <url>:" wrapping.
func errShed(format string, args ...interface{}) error {
	return &clarens.Fault{Code: clarens.FaultOverloaded, Message: fmt.Sprintf(format, args...)}
}

// ---- admission outcomes (qtrack / explain / loadstats vocabulary) ----

const (
	admitNone int32 = iota // gate disabled or not consulted
	admitImmediate
	admitQueued
)

// ---- the weighted gate ----

// waiter is one queued acquire. grant is closed by the releasing
// goroutine with a.mu held; granted/abandoned resolve the race between a
// grant and the waiter giving up (deadline, cancellation) — whichever
// transition happens first under the mutex wins, and a grant that lands
// on an abandoned waiter is passed straight to the next one so the slot
// cannot leak.
type waiter struct {
	grant     chan struct{}
	granted   bool
	abandoned bool
}

// weightClass is one tenant's FIFO of waiters plus its stride-scheduling
// state: pass advances by 1/weight per grant, and the scheduler always
// grants the nonempty class with the minimum pass, so over time each
// backlogged tenant drains in proportion to its weight.
type weightClass struct {
	tenant  string
	weight  int
	pass    float64
	waiters []*waiter
}

// admitter is the max-in-flight gate. All state is guarded by mu; the
// blocking wait happens outside the lock on the waiter's grant channel.
type admitter struct {
	capacity int
	queueCap int
	timeout  time.Duration
	weights  map[string]int
	obs      *serviceObsv

	mu       sync.Mutex
	inflight int
	queued   int
	classes  map[string]*weightClass
	// vpass is the pass of the most recently granted class: a class going
	// from empty to backlogged starts here, so it competes fairly with
	// classes that have been draining (it cannot claim credit for time it
	// had nothing queued).
	vpass   float64
	tenants map[string]*tenantStats
}

// tenantStats accumulates one tenant's admission history (a.mu guards).
type tenantStats struct {
	weight            int
	admittedImmediate int64
	admittedQueued    int64
	shed              int64
	cancelled         int64
	queuedNs          int64
}

func newAdmitter(cfg Config, obs *serviceObsv) *admitter {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	queueCap := cfg.AdmissionQueue
	if queueCap == 0 {
		queueCap = defaultAdmissionQueueFactor * cfg.MaxInFlight
	}
	if queueCap < 0 {
		queueCap = 0
	}
	timeout := cfg.AdmissionTimeout
	if timeout == 0 {
		timeout = defaultAdmissionTimeout
	}
	if timeout < 0 {
		timeout = 0 // bounded only by the caller's context
	}
	return &admitter{
		capacity: cfg.MaxInFlight,
		queueCap: queueCap,
		timeout:  timeout,
		weights:  cfg.TenantWeights,
		obs:      obs,
		classes:  make(map[string]*weightClass),
		tenants:  make(map[string]*tenantStats),
	}
}

func (a *admitter) weightOf(tenant string) int {
	if w, ok := a.weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// statsLocked returns the tenant's accumulator, creating it on first use.
func (a *admitter) statsLocked(tenant string) *tenantStats {
	ts, ok := a.tenants[tenant]
	if !ok {
		ts = &tenantStats{weight: a.weightOf(tenant)}
		a.tenants[tenant] = ts
	}
	return ts
}

// ticket is one admitted query's hold on an in-flight slot. release is
// idempotent: a stream releases it at its terminal Next and again at its
// Close, whichever the consumer reaches first.
type ticket struct {
	a        *admitter
	tenant   string
	outcome  int32
	waited   time.Duration
	released atomic.Bool
}

func (tk *ticket) release() {
	if tk == nil || !tk.released.CompareAndSwap(false, true) {
		return
	}
	tk.a.releaseSlot()
}

// acquire takes an in-flight slot for the caller, queueing (FIFO within
// the tenant's weight class) when the gate is saturated. It returns a
// FaultOverloaded error when the queue is full or the queue deadline
// expires, and the caller's own context error when that cancels first —
// the distinction clients need between "back off and retry" and "you
// gave up". A nil admitter admits everything with a nil ticket.
func (a *admitter) acquire(ctx context.Context, tenant string) (*ticket, error) {
	if a == nil {
		return nil, nil
	}
	a.mu.Lock()
	ts := a.statsLocked(tenant)
	if a.inflight < a.capacity && a.queued == 0 {
		a.inflight++
		ts.admittedImmediate++
		a.mu.Unlock()
		a.obs.admImmediate.Inc()
		return &ticket{a: a, tenant: tenant, outcome: admitImmediate}, nil
	}
	if a.queued >= a.queueCap {
		ts.shed++
		a.mu.Unlock()
		a.obs.admShedFull.Inc()
		return nil, errShed("dataaccess: overloaded: %d queries in flight and %d queued (admission queue full)",
			a.capacity, a.queueCap)
	}
	w := &waiter{grant: make(chan struct{})}
	cls, ok := a.classes[tenant]
	if !ok {
		cls = &weightClass{tenant: tenant, weight: a.weightOf(tenant), pass: a.vpass}
		a.classes[tenant] = cls
	}
	cls.waiters = append(cls.waiters, w)
	a.queued++
	a.mu.Unlock()

	start := time.Now()
	var timeoutC <-chan time.Time
	if a.timeout > 0 {
		timer := time.NewTimer(a.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case <-w.grant:
		waited := time.Since(start)
		a.mu.Lock()
		a.statsLocked(tenant).admittedQueued++
		a.statsLocked(tenant).queuedNs += int64(waited)
		a.mu.Unlock()
		a.obs.admQueued.Inc()
		a.obs.admWait.ObserveDuration(waited)
		return &ticket{a: a, tenant: tenant, outcome: admitQueued, waited: waited}, nil
	case <-ctx.Done():
		a.abandon(w, tenant, false)
		a.obs.admCancelled.Inc()
		return nil, ctx.Err()
	case <-timeoutC:
		a.abandon(w, tenant, true)
		a.obs.admShedTimeout.Inc()
		return nil, errShed("dataaccess: overloaded: no slot freed within %v (queue deadline)", a.timeout)
	}
}

// abandon resolves a waiter that stopped waiting. If the grant already
// landed (the race), the held slot is passed to the next waiter or freed
// so it cannot leak; otherwise the waiter is marked dead for the
// scheduler to skip.
func (a *admitter) abandon(w *waiter, tenant string, timedOut bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.statsLocked(tenant)
	if timedOut {
		ts.shed++
	} else {
		ts.cancelled++
	}
	if w.granted {
		a.releaseSlotLocked()
		return
	}
	w.abandoned = true
	a.queued--
}

// releaseSlot frees one in-flight slot, preferring to hand it to a
// queued waiter (stride order) over decrementing the count.
func (a *admitter) releaseSlot() {
	a.mu.Lock()
	a.releaseSlotLocked()
	a.mu.Unlock()
}

func (a *admitter) releaseSlotLocked() {
	for {
		cls := a.minClassLocked()
		if cls == nil {
			a.inflight--
			return
		}
		w := cls.waiters[0]
		cls.waiters = cls.waiters[1:]
		if len(cls.waiters) == 0 {
			delete(a.classes, cls.tenant)
		}
		if w.abandoned {
			continue // its queued count was already decremented
		}
		w.granted = true
		cls.pass += 1 / float64(cls.weight)
		a.vpass = cls.pass
		a.queued--
		close(w.grant)
		return
	}
}

// minClassLocked picks the backlogged class with the lowest pass.
func (a *admitter) minClassLocked() *weightClass {
	var min *weightClass
	for _, cls := range a.classes {
		if len(cls.waiters) == 0 {
			continue
		}
		if min == nil || cls.pass < min.pass ||
			(cls.pass == min.pass && cls.tenant < min.tenant) {
			min = cls
		}
	}
	return min
}

// probe reports what would happen to a query arriving now — the
// explain-time admission outcome ("admit", "queue", "would-shed").
func (a *admitter) probe() string {
	if a == nil {
		return "admit"
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case a.inflight < a.capacity && a.queued == 0:
		return "admit"
	case a.queued < a.queueCap:
		return "queue"
	default:
		return "would-shed"
	}
}

// ---- per-session quotas ----

// sessionState tracks one session's resource burn. Guarded by
// sessionTable.mu.
type sessionState struct {
	tenant   string
	cursors  int
	bytes    int64
	lastSeen time.Time
}

// sessionTable enforces per-session quotas on open cursors and streamed
// bytes. Sessions are identified by the clarens session token; calls
// without one (open servers, embedded callers that did not opt in) are
// not quota-tracked. Idle entries are dropped by an amortized sweep on
// the request path — no janitor goroutine — but never while they still
// hold cursors.
type sessionTable struct {
	maxCursors int
	maxBytes   int64
	obs        *serviceObsv

	mu        sync.Mutex
	sessions  map[string]*sessionState
	denied    map[string]*quotaDenials
	ops       int
	lastSweep time.Time
}

// quotaDenials accumulates one tenant's quota-trip history. Unlike
// session state it survives the idle sweep — denials are operator-facing
// evidence, not budget. Guarded by sessionTable.mu.
type quotaDenials struct {
	cursors int64
	bytes   int64
}

func newSessionTable(cfg Config, obs *serviceObsv) *sessionTable {
	if cfg.SessionMaxCursors <= 0 && cfg.SessionMaxBytes <= 0 {
		return nil
	}
	return &sessionTable{
		maxCursors: cfg.SessionMaxCursors,
		maxBytes:   cfg.SessionMaxBytes,
		obs:        obs,
		sessions:   make(map[string]*sessionState),
		denied:     make(map[string]*quotaDenials),
		lastSweep:  time.Now(),
	}
}

// deniedLocked returns the tenant's denial counters, creating on first
// trip.
func (st *sessionTable) deniedLocked(tenant string) *quotaDenials {
	qd, ok := st.denied[tenant]
	if !ok {
		qd = &quotaDenials{}
		st.denied[tenant] = qd
	}
	return qd
}

// stateLocked returns the session's entry, creating it on first use, and
// runs the amortized idle sweep.
func (st *sessionTable) stateLocked(ci CallerInfo) *sessionState {
	if st.ops++; st.ops >= sessionSweepEvery && time.Since(st.lastSweep) >= sessionSweepInterval {
		st.sweepLocked(time.Now())
	}
	ss, ok := st.sessions[ci.Session]
	if !ok {
		ss = &sessionState{tenant: ci.tenantOf()}
		st.sessions[ci.Session] = ss
	}
	ss.lastSeen = time.Now()
	return ss
}

// sweepLocked drops idle, cursor-free sessions (their byte budget resets
// with them — an expired login starts fresh, exactly like clarens makes
// it log in again).
func (st *sessionTable) sweepLocked(now time.Time) {
	for token, ss := range st.sessions {
		if ss.cursors == 0 && now.Sub(ss.lastSeen) > sessionQuotaTTL {
			delete(st.sessions, token)
		}
	}
	st.ops = 0
	st.lastSweep = now
}

// reserveCursor charges one open cursor to the session, refusing with a
// FaultOverloaded quota fault at the cap. A nil table (quotas off) or an
// empty session admits freely.
func (st *sessionTable) reserveCursor(ci CallerInfo) error {
	if st == nil || ci.Session == "" || st.maxCursors <= 0 {
		return nil
	}
	st.mu.Lock()
	ss := st.stateLocked(ci)
	if ss.cursors >= st.maxCursors {
		st.deniedLocked(ci.tenantOf()).cursors++
		st.mu.Unlock()
		st.obs.quotaCursors.Inc()
		return errShed("dataaccess: session cursor quota exhausted (%d open; close or drain a cursor first)",
			st.maxCursors)
	}
	ss.cursors++
	st.mu.Unlock()
	return nil
}

// releaseCursor returns a cursor reservation (cursor closed, reaped, or
// its open failed after the reserve).
func (st *sessionTable) releaseCursor(session string) {
	if st == nil || session == "" {
		return
	}
	st.mu.Lock()
	if ss, ok := st.sessions[session]; ok && ss.cursors > 0 {
		ss.cursors--
	}
	st.mu.Unlock()
}

// metersBytes reports whether the caller's streamed bytes are charged: a
// nil table (quotas off), an empty session or no byte cap charges none.
func (st *sessionTable) metersBytes(ci CallerInfo) bool {
	return st != nil && ci.Session != "" && st.maxBytes > 0
}

// chargeBytes charges streamed delivery against the session's byte
// budget, tripping with a FaultOverloaded quota fault once the lifetime
// total passes the cap. Rows are charged as they are delivered, so the
// trip lands mid-stream on whichever row crosses the budget — that row
// is withheld and the stream ends with the quota fault.
func (st *sessionTable) chargeBytes(ci CallerInfo, n int64) error {
	if !st.metersBytes(ci) {
		return nil
	}
	st.mu.Lock()
	ss := st.stateLocked(ci)
	ss.bytes += n
	over := ss.bytes > st.maxBytes
	if over {
		st.deniedLocked(ci.tenantOf()).bytes++
	}
	st.mu.Unlock()
	if over {
		st.obs.quotaBytes.Inc()
		return errShed("dataaccess: session streamed-byte quota exhausted (%d bytes; ends with the session)",
			st.maxBytes)
	}
	return nil
}

// ---- service surfaces ----

// TenantLoad is one tenant's admission and quota history.
type TenantLoad struct {
	Tenant string
	Weight int
	// AdmittedImmediate / AdmittedQueued / Shed / Cancelled partition
	// this tenant's gate outcomes; QueuedMs is total time spent queued.
	AdmittedImmediate int64
	AdmittedQueued    int64
	Shed              int64
	Cancelled         int64
	QueuedMs          float64
	// QuotaDeniedCursors / QuotaDeniedBytes count per-session quota trips.
	QuotaDeniedCursors int64
	QuotaDeniedBytes   int64
	// Sessions / OpenCursors / StreamedBytes aggregate the tenant's live
	// quota-tracked sessions.
	Sessions      int
	OpenCursors   int
	StreamedBytes int64
}

// LoadStats is the operational snapshot behind system.loadstats.
type LoadStats struct {
	Enabled     bool
	MaxInFlight int
	QueueCap    int
	InFlight    int
	Queued      int
	// Lifetime gate totals across tenants.
	AdmittedImmediate int64
	AdmittedQueued    int64
	Shed              int64
	Cancelled         int64
	// Session-quota configuration (0 = unlimited).
	SessionMaxCursors int
	SessionMaxBytes   int64
	Tenants           []TenantLoad
}

// LoadStats snapshots the admission gate and per-tenant counters.
func (s *Service) LoadStats() LoadStats {
	ls := LoadStats{
		Enabled:           s.admit != nil,
		SessionMaxCursors: s.cfg.SessionMaxCursors,
		SessionMaxBytes:   s.cfg.SessionMaxBytes,
	}
	byTenant := make(map[string]*TenantLoad)
	tenant := func(name string) *TenantLoad {
		tl, ok := byTenant[name]
		if !ok {
			tl = &TenantLoad{Tenant: name, Weight: 1}
			if s.admit != nil {
				tl.Weight = s.admit.weightOf(name)
			}
			byTenant[name] = tl
		}
		return tl
	}
	if a := s.admit; a != nil {
		a.mu.Lock()
		ls.MaxInFlight = a.capacity
		ls.QueueCap = a.queueCap
		ls.InFlight = a.inflight
		ls.Queued = a.queued
		for name, ts := range a.tenants {
			tl := tenant(name)
			tl.Weight = ts.weight
			tl.AdmittedImmediate = ts.admittedImmediate
			tl.AdmittedQueued = ts.admittedQueued
			tl.Shed = ts.shed
			tl.Cancelled = ts.cancelled
			tl.QueuedMs = float64(ts.queuedNs) / float64(time.Millisecond)
			ls.AdmittedImmediate += ts.admittedImmediate
			ls.AdmittedQueued += ts.admittedQueued
			ls.Shed += ts.shed
			ls.Cancelled += ts.cancelled
		}
		a.mu.Unlock()
	}
	if st := s.sessions; st != nil {
		st.mu.Lock()
		for _, ss := range st.sessions {
			tl := tenant(ss.tenant)
			tl.Sessions++
			tl.OpenCursors += ss.cursors
			tl.StreamedBytes += ss.bytes
		}
		for name, qd := range st.denied {
			tl := tenant(name)
			tl.QuotaDeniedCursors = qd.cursors
			tl.QuotaDeniedBytes = qd.bytes
		}
		st.mu.Unlock()
	}
	for _, tl := range byTenant {
		ls.Tenants = append(ls.Tenants, *tl)
	}
	sort.Slice(ls.Tenants, func(i, j int) bool { return ls.Tenants[i].Tenant < ls.Tenants[j].Tenant })
	return ls
}
