package dataaccess

import (
	"context"
	"testing"
	"time"

	"gridrdb/internal/rls"
	"gridrdb/internal/sqlengine"
)

func TestHeartbeatKeepsRegistrationAlive(t *testing.T) {
	// Catalog with a very short TTL: without renewal, registrations
	// vanish; with the heartbeat they persist.
	catalog := rls.NewServer(60 * time.Millisecond)
	url, err := catalog.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer catalog.Close()

	s := New(Config{Name: "hb", RLS: rls.NewClient(url)})
	defer s.Close()
	s.SetURL("http://hb.example:1")
	_, spec := mkMart(t, "hbmart", sqlengine.DialectMySQL, "hbdata", 2)
	addMart(t, s, "hbmart", spec, "gridsql-mysql")

	hb := NewHeartbeat(s, 15*time.Millisecond)
	hb.Start()
	defer hb.Stop()

	// Well past the TTL, the mapping must still be there thanks to
	// renewals.
	time.Sleep(200 * time.Millisecond)
	servers, err := rls.NewClient(url).LookupContext(context.Background(), "hbdata")
	if err != nil || len(servers) != 1 {
		t.Fatalf("registration lost despite heartbeat: %v %v", servers, err)
	}

	// Stop the heartbeat; the registration must then expire.
	hb.Stop()
	time.Sleep(150 * time.Millisecond)
	servers, _ = rls.NewClient(url).LookupContext(context.Background(), "hbdata")
	if len(servers) != 0 {
		t.Fatalf("registration survived without heartbeat: %v", servers)
	}
}

func TestHeartbeatZeroIntervalNoop(t *testing.T) {
	s := New(Config{Name: "hb0"})
	defer s.Close()
	hb := NewHeartbeat(s, 0)
	hb.Start() // must not spin up anything
	hb.Stop()
}
