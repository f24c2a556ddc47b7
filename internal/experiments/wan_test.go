package experiments

import (
	"testing"

	"gridrdb/internal/netsim"
)

func TestRunWANLocalProfile(t *testing.T) {
	// Use only zero-cost profiles so the test is fast; the structure
	// (2 rows per profile, distributed flagging) is what we verify.
	rows, err := RunWAN([]*netsim.Profile{netsim.Local}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Distributed || !rows[1].Distributed {
		t.Errorf("distribution flags: %+v", rows)
	}
	for _, r := range rows {
		if r.Profile != "local" || r.ResponseMS < 0 {
			t.Errorf("row: %+v", r)
		}
	}
}

func TestRunWANOrderedCosts(t *testing.T) {
	// A sleeping profile orders above local.
	rows, err := RunWAN([]*netsim.Profile{netsim.Local, netsim.LAN100}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// rows: [local q1, local q2, tiny q1, tiny q2]
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !(rows[3].ResponseMS >= rows[1].ResponseMS) {
		t.Errorf("costed profile not slower: %+v", rows)
	}
}
