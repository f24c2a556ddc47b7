package dataaccess

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

// Tracker implements §4.9: "after a fixed interval of time, a thread is
// run against the back-end databases to generate a new XSpec for each
// database. The size of the newly created XSpec is compared against the
// size of the older XSpec file. If the sizes are equal, the files are
// compared using their md5 sums. If there is any change ... the older
// version of the XSpec is replaced by the new one [and] the server then
// uses the new XSpec file to update the schema."
type Tracker struct {
	svc      *Service
	interval time.Duration

	mu    sync.Mutex
	known map[string]trackedSpec

	cancel context.CancelFunc // ends the periodic thread (nil until Start)
	wg     sync.WaitGroup

	checks  atomic.Int64
	updates atomic.Int64
}

// trackedSpec is the last observed generation of one source's spec: the
// fingerprint answers "did anything change?" cheaply, and the retained
// spec lets a detected change be diffed down to the tables it touched.
type trackedSpec struct {
	fp   xspec.Fingerprint
	spec *xspec.LowerSpec
}

// NewTracker creates a tracker for a service; interval <= 0 means the
// tracker only runs on explicit CheckNow calls (useful for tests).
func NewTracker(svc *Service, interval time.Duration) *Tracker {
	return &Tracker{
		svc:      svc,
		interval: interval,
		known:    make(map[string]trackedSpec),
	}
}

// Start launches the periodic regeneration thread. Its introspection
// queries run under ctx, and it ends when ctx does or Stop is called.
func (t *Tracker) Start(ctx context.Context) {
	if t.interval <= 0 {
		return
	}
	ctx, t.cancel = context.WithCancel(ctx)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ticker := time.NewTicker(t.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				t.CheckNow(ctx)
			}
		}
	}()
}

// Stop halts the periodic thread, cancelling a check it is running.
func (t *Tracker) Stop() {
	if t.cancel != nil {
		t.cancel()
	}
	t.wg.Wait()
}

// Stats reports (checks completed, schema updates applied). A check counts
// once its pass over every source has finished, so a caller that observes
// checks >= 1 knows the baseline fingerprints are recorded.
func (t *Tracker) Stats() (checks, updates int64) {
	return t.checks.Load(), t.updates.Load()
}

// CheckNow regenerates the XSpec of every source and hot-reloads any whose
// fingerprint changed. It returns the names of updated sources.
func (t *Tracker) CheckNow(ctx context.Context) ([]string, error) {
	defer t.checks.Add(1)
	var updated []string
	var firstErr error
	for _, name := range t.svc.fed.Sources() {
		changed, err := t.checkSource(ctx, name)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if changed {
			updated = append(updated, name)
		}
	}
	if len(updated) > 0 {
		// Newly visible tables must be discoverable by other instances.
		if err := t.svc.PublishAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return updated, firstErr
}

func (t *Tracker) checkSource(ctx context.Context, name string) (bool, error) {
	dialect, err := t.svc.fed.SourceDialectName(name)
	if err != nil {
		return false, err
	}
	spec, err := xspec.Generate(name, dialect, sourceQueryer{ctx: ctx, fed: t.svc.fed, name: name})
	if err != nil {
		return false, fmt.Errorf("dataaccess: tracker: regenerate %s: %w", name, err)
	}
	data, err := spec.Marshal()
	if err != nil {
		return false, err
	}
	fp := xspec.FingerprintOf(data)
	t.mu.Lock()
	old, seen := t.known[name]
	t.known[name] = trackedSpec{fp: fp, spec: spec}
	t.mu.Unlock()
	if seen && fp.Equal(old.fp) {
		return false, nil
	}
	if !seen {
		// First observation: baseline only, no reload.
		return false, nil
	}
	if err := t.svc.fed.ReplaceSpec(name, spec); err != nil {
		return false, err
	}
	// Evict only the cached results that read what actually changed: the
	// old and new specs are diffed table by table, so entries on the
	// source's untouched tables keep serving hits.
	for _, table := range xspec.DiffSpecs(old.spec, spec).Tables {
		t.svc.InvalidateTable(name, table)
	}
	t.updates.Add(1)
	return true, nil
}

// sourceQueryer adapts a federation member to the xspec.Queryer
// interface, querying it under ctx.
type sourceQueryer struct {
	ctx  context.Context
	fed  *unity.Federation
	name string
}

// Query implements xspec.Queryer against one federation source.
func (q sourceQueryer) Query(sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	if len(params) > 0 {
		return nil, fmt.Errorf("dataaccess: introspection queries take no parameters")
	}
	return q.fed.QuerySource(q.ctx, q.name, sql)
}
