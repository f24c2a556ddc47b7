package dataaccess

import (
	"context"
	"sync"
	"testing"
	"time"

	"gridrdb/internal/rls"
	"gridrdb/internal/sqlengine"
)

func TestTrackerPeriodicRun(t *testing.T) {
	s := New(Config{Name: "jt"})
	defer s.Close()
	mart, spec := mkMart(t, "periodic", sqlengine.DialectMySQL, "events", 3)
	addMart(t, s, "periodic", spec, "gridsql-mysql")

	tr := NewTracker(s, 5*time.Millisecond)
	tr.Start()
	defer tr.Stop()

	// Baseline pass happens on the first tick; then change the schema and
	// wait for the periodic thread to pick it up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if checks, _ := tr.Stats(); checks >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tracker never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := mart.Exec("CREATE TABLE `surprise` (`k` BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for {
		if _, updates := tr.Stats(); updates >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tracker never applied the schema change")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.QueryContext(context.Background(), "SELECT k FROM surprise"); err != nil {
		t.Fatalf("hot-reloaded table not queryable: %v", err)
	}
	// Stop is idempotent.
	tr.Stop()
}

func TestPublishAllRenewsRLS(t *testing.T) {
	catalog := rls.NewServer(time.Minute)
	url, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()

	s := New(Config{Name: "jp", RLS: rls.NewClient(url)})
	defer s.Close()
	s.SetURL("http://jp.example:1")
	_, spec := mkMart(t, "pubmart", sqlengine.DialectMySQL, "pubdata", 2)
	addMart(t, s, "pubmart", spec, "gridsql-mysql")

	servers, err := rls.NewClient(url).LookupContext(context.Background(), "pubdata")
	if err != nil || len(servers) != 1 {
		t.Fatalf("initial publish: %v %v", servers, err)
	}
	// PublishAll re-registers everything (TTL renewal path).
	if err := s.PublishAll(); err != nil {
		t.Fatal(err)
	}
	servers, err = rls.NewClient(url).LookupContext(context.Background(), "pubdata")
	if err != nil || len(servers) != 1 {
		t.Fatalf("after renewal: %v %v", servers, err)
	}
	// Close unpublishes.
	s.Close()
	servers, _ = rls.NewClient(url).LookupContext(context.Background(), "pubdata")
	if len(servers) != 0 {
		t.Fatalf("close did not unpublish: %v", servers)
	}
}

func TestConcurrentMixedRouting(t *testing.T) {
	jc1, _ := twoServerDeployment(t)
	var wg sync.WaitGroup
	errs := make(chan error, 48)
	queries := []string{
		"SELECT event_id FROM events WHERE run = 100",                                        // local RAL
		"SELECT COUNT(*) FROM events",                                                        // local unity
		"SELECT event_id FROM runsinfo WHERE run = 101",                                      // remote forward
		"SELECT e.event_id FROM events e JOIN runsinfo r ON e.run = r.run WHERE r.run = 100", // mixed
	}
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := jc1.QueryContext(context.Background(), queries[(c+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := jc1.Stats()
	if st.Queries.Load() != 60 {
		t.Errorf("queries = %d", st.Queries.Load())
	}
	if st.RAL.Load() == 0 || st.Unity.Load() == 0 || st.Forwarded.Load() == 0 || st.Mixed.Load() == 0 {
		t.Errorf("not all routes exercised: %+v ral=%d unity=%d fwd=%d mixed=%d",
			st, st.RAL.Load(), st.Unity.Load(), st.Forwarded.Load(), st.Mixed.Load())
	}
}

func TestQueryErrorPropagationAcrossServers(t *testing.T) {
	jc1, _ := twoServerDeployment(t)
	// A syntactically broken query against a remote table must surface
	// the remote error, not hang or panic.
	if _, err := jc1.QueryContext(context.Background(), "SELECT nosuchcol FROM runsinfo"); err == nil {
		t.Fatal("bad remote query succeeded")
	}
	// Mixed query where the remote sub-fetch fails (predicate on a
	// remote-only column is fine; use a bogus function instead).
	if _, err := jc1.QueryContext(context.Background(), "SELECT e.event_id FROM events e JOIN runsinfo r ON BOGUSFN(e.run) = r.run"); err == nil {
		t.Fatal("bogus function accepted")
	}
}

func TestRemovedDatabaseFallsBackToRLS(t *testing.T) {
	jc1, jc2 := twoServerDeployment(t)
	_ = jc2
	// events is local to jc1. After removing its database, jc1 must treat
	// it as remote (and fail the lookup gracefully since no other server
	// hosts it... unless jc2 does — it does not).
	if err := jc1.RemoveDatabase("d_events"); err != nil {
		t.Fatal(err)
	}
	if _, err := jc1.QueryContext(context.Background(), "SELECT event_id FROM events"); err == nil {
		t.Fatal("query for removed database's table succeeded")
	}
}
