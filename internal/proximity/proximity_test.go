package proximity

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

// replicatedFederation hosts the same logical table on two sources.
func replicatedFederation(t *testing.T) *unity.Federation {
	t.Helper()
	mk := func(name string) {
		e := sqlengine.NewEngine(name, sqlengine.DialectMySQL)
		if err := e.ExecScript("CREATE TABLE `caldata` (`k` BIGINT, `v` DOUBLE); INSERT INTO `caldata` VALUES (1, 1.5)"); err != nil {
			t.Fatal(err)
		}
		sqldriver.RegisterEngine(e)
		t.Cleanup(func() { sqldriver.UnregisterEngine(name) })
	}
	mk("px_near")
	mk("px_far")
	specFor := func(name string) *xspec.LowerSpec {
		e, _ := sqldriver.LookupEngine(name)
		s, err := xspec.Generate(name, "mysql", e)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	upper := &xspec.UpperSpec{Name: "pxfed", Sources: []xspec.SourceRef{
		{Name: "px_near", URL: "local://px_near", Driver: "gridsql-mysql"},
		{Name: "px_far", URL: "local://px_far", Driver: "gridsql-mysql"},
	}}
	f, err := unity.Open(upper, map[string]*xspec.LowerSpec{
		"px_near": specFor("px_near"), "px_far": specFor("px_far"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestProximitySteersReplicaSelection(t *testing.T) {
	f := replicatedFederation(t)
	p := NewProber(f)
	p.SetMeasureFunc(func(_ context.Context, source string) (time.Duration, error) {
		if source == "px_near" {
			return 2 * time.Millisecond, nil
		}
		return 80 * time.Millisecond, nil // the WAN replica
	})
	p.ProbeOnce(context.Background())

	// Every plan must now route the replicated table to the near source.
	for i := 0; i < 10; i++ {
		plan, err := f.PlanQuery("SELECT v FROM caldata WHERE k = 1")
		if err != nil {
			t.Fatal(err)
		}
		if plan.Subs[0].Source != "px_near" {
			t.Fatalf("iteration %d routed to %s", i, plan.Subs[0].Source)
		}
	}
}

func TestWithoutProbesLoadBalancingStillSpreads(t *testing.T) {
	f := replicatedFederation(t)
	hit := map[string]bool{}
	for i := 0; i < 10; i++ {
		plan, err := f.PlanQuery("SELECT v FROM caldata")
		if err != nil {
			t.Fatal(err)
		}
		hit[plan.Subs[0].Source] = true
	}
	if !hit["px_near"] || !hit["px_far"] {
		t.Errorf("unprobed federation should round-robin: %v", hit)
	}
}

func TestEWMASmoothing(t *testing.T) {
	f := replicatedFederation(t)
	p := NewProber(f)
	p.alpha = 0.5
	samples := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	i := 0
	p.SetMeasureFunc(func(_ context.Context, source string) (time.Duration, error) {
		return samples[i%len(samples)], nil
	})
	p.ProbeOnce(context.Background()) // 10ms baseline
	i = 1
	c, ok := p.ProbeOnce(context.Background())["px_near"] // ewma = 0.5*20 + 0.5*10 = 15ms
	if !ok || c != 15*time.Millisecond {
		t.Fatalf("ewma = %v", c)
	}
}

func TestFailurePoisonsReplica(t *testing.T) {
	f := replicatedFederation(t)
	p := NewProber(f)
	p.SetMeasureFunc(func(_ context.Context, source string) (time.Duration, error) {
		if source == "px_far" {
			return 0, fmt.Errorf("unreachable")
		}
		return time.Millisecond, nil
	})
	// Three consecutive failures mark the replica as effectively
	// unavailable.
	var costs map[string]time.Duration
	for i := 0; i < 3; i++ {
		costs = p.ProbeOnce(context.Background())
	}
	if cost := costs["px_far"]; cost < time.Hour {
		t.Fatalf("failed replica cost = %v, want poisoned", cost)
	}
	plan, err := f.PlanQuery("SELECT v FROM caldata")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Subs[0].Source != "px_near" {
		t.Fatalf("routed to failed replica")
	}
}

func TestSetSourceCostUnknown(t *testing.T) {
	f := replicatedFederation(t)
	if err := f.SetSourceCost("nosuch", time.Second); err == nil {
		t.Error("unknown source accepted")
	}
}
