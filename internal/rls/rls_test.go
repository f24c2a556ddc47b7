package rls

import (
	"context"
	"testing"
	"time"

	"gridrdb/internal/netsim"
)

func startCatalog(t *testing.T, ttl time.Duration) (*Server, *Client) {
	t.Helper()
	s := NewServer(ttl)
	url, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, NewClient(url)
}

func TestPublishLookup(t *testing.T) {
	_, c := startCatalog(t, 0)
	if err := c.Publish("http://jclarens-1:8080", []string{"fact_nt", "dim_run"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("http://jclarens-2:8080", []string{"fact_nt"}); err != nil {
		t.Fatal(err)
	}
	servers, err := c.LookupContext(context.Background(), "fact_nt")
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 || servers[0] != "http://jclarens-1:8080" {
		t.Fatalf("servers = %v", servers)
	}
	// Lookup is case-insensitive (table names are normalized).
	servers, err = c.LookupContext(context.Background(), "FACT_NT")
	if err != nil || len(servers) != 2 {
		t.Fatalf("case-insensitive lookup: %v %v", servers, err)
	}
	servers, err = c.LookupContext(context.Background(), "dim_run")
	if err != nil || len(servers) != 1 {
		t.Fatalf("dim_run: %v %v", servers, err)
	}
	// Unknown tables return no servers, not an error.
	servers, err = c.LookupContext(context.Background(), "nosuch")
	if err != nil || len(servers) != 0 {
		t.Fatalf("unknown: %v %v", servers, err)
	}
}

func TestUnpublish(t *testing.T) {
	_, c := startCatalog(t, 0)
	if err := c.Publish("http://a", []string{"t1", "t2"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Unpublish("http://a", []string{"t1"}); err != nil {
		t.Fatal(err)
	}
	if servers, _ := c.LookupContext(context.Background(), "t1"); len(servers) != 0 {
		t.Fatalf("t1 still mapped: %v", servers)
	}
	if servers, _ := c.LookupContext(context.Background(), "t2"); len(servers) != 1 {
		t.Fatalf("t2 lost: %v", servers)
	}
	// Unpublish-all for a server.
	if err := c.Unpublish("http://a", nil); err != nil {
		t.Fatal(err)
	}
	if servers, _ := c.LookupContext(context.Background(), "t2"); len(servers) != 0 {
		t.Fatalf("t2 survived unpublish-all: %v", servers)
	}
}

func TestTTLExpiry(t *testing.T) {
	s := NewServer(time.Minute)
	now := time.Now()
	s.now = func() time.Time { return now }
	url, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(url)
	if err := c.Publish("http://a", []string{"t"}); err != nil {
		t.Fatal(err)
	}
	if servers, _ := c.LookupContext(context.Background(), "t"); len(servers) != 1 {
		t.Fatalf("before expiry: %v", servers)
	}
	now = now.Add(2 * time.Minute) // past TTL
	if servers, _ := c.LookupContext(context.Background(), "t"); len(servers) != 0 {
		t.Fatalf("after expiry: %v", servers)
	}
	// Re-publish renews.
	if err := c.Publish("http://a", []string{"t"}); err != nil {
		t.Fatal(err)
	}
	if servers, _ := c.LookupContext(context.Background(), "t"); len(servers) != 1 {
		t.Fatalf("after renewal: %v", servers)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := startCatalog(t, 0)
	if err := c.Publish("", []string{"t"}); err == nil {
		t.Error("empty server_url accepted")
	}
	if err := c.Publish("http://a", nil); err == nil {
		t.Error("empty tables accepted")
	}
	if _, err := NewClient(c.BaseURL).LookupContext(context.Background(), ""); err == nil {
		t.Error("empty table lookup accepted")
	}
}

func TestClientNetsimCharging(t *testing.T) {
	_, c := startCatalog(t, 0)
	clock := &netsim.Clock{}
	c.Profile = &netsim.Profile{Name: "t", RTT: time.Millisecond}
	c.Clock = clock
	if err := c.Publish("http://a", []string{"t"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LookupContext(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	if clock.Simulated() != 2*time.Millisecond {
		t.Fatalf("charged %v, want 2ms", clock.Simulated())
	}
}

func TestServerSideLookupAndCount(t *testing.T) {
	s, c := startCatalog(t, 0)
	if err := c.Publish("http://a", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Lookup("x"); len(got) != 1 {
		t.Fatalf("server lookup: %v", got)
	}
	if n := len(s.tables); n != 2 {
		t.Fatalf("table count = %d", n)
	}
}
