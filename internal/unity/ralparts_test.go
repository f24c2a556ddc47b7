package unity

import (
	"strings"
	"testing"
)

func TestExtractRALPartsFits(t *testing.T) {
	f := buildFederation(t)
	parts, ok, err := f.ExtractRALParts("SELECT event_id, e_tot FROM events WHERE run = 100 AND e_tot > 5")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if parts.Source != "tier2my" {
		t.Errorf("source = %s", parts.Source)
	}
	if len(parts.Fields) != 2 || parts.Fields[0] != "event_id" {
		t.Errorf("fields = %v", parts.Fields)
	}
	if len(parts.Tables) != 1 || parts.Tables[0] != "events" {
		t.Errorf("tables = %v", parts.Tables)
	}
	if !strings.Contains(parts.Where, "100") || !strings.Contains(parts.Where, "5") {
		t.Errorf("where = %q", parts.Where)
	}
}

func TestExtractRALPartsAliasStripped(t *testing.T) {
	f := buildFederation(t)
	parts, ok, err := f.ExtractRALParts("SELECT e.event_id FROM events e WHERE e.run = 100")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// The RAL call has no alias, so the where must not mention "e".
	if strings.Contains(parts.Where, "`e`") {
		t.Errorf("alias leaked into where: %q", parts.Where)
	}
	if !strings.Contains(parts.Where, "`run`") {
		t.Errorf("where = %q", parts.Where)
	}
}

func TestExtractRALPartsRejections(t *testing.T) {
	f := buildFederation(t)
	for _, q := range []string{
		"SELECT COUNT(*) FROM events",                                       // aggregate
		"SELECT event_id FROM events ORDER BY event_id",                     // order by
		"SELECT event_id FROM events LIMIT 3",                               // limit
		"SELECT DISTINCT event_id FROM events",                              // distinct
		"SELECT e.event_id FROM events e JOIN runs r ON e.run = r.run",      // multi-table
		"SELECT event_id FROM events WHERE run = ?",                         // params
		"SELECT event_id AS x FROM events",                                  // alias in projection
		"SELECT event_id FROM events UNION ALL SELECT event_id FROM events", // union
		"SELECT event_id, e_tot FROM events GROUP BY event_id, e_tot",       // group by
		// subquery: the call cannot qualify e inside it
		"SELECT e.event_id FROM events e WHERE EXISTS (SELECT 1 FROM lookup l WHERE l.k = e.event_id)",
	} {
		_, ok, err := f.ExtractRALParts(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if ok {
			t.Errorf("%q accepted for RAL", q)
		}
	}
	// Unknown tables propagate the typed error.
	if _, _, err := f.ExtractRALParts("SELECT x FROM never_heard_of_it"); err == nil {
		t.Error("unknown table silently ignored")
	}
}

func TestVendorFromDriver(t *testing.T) {
	if VendorFromDriver("gridsql-oracle") != "oracle" || VendorFromDriver("custom") != "custom" {
		t.Error("vendor mapping")
	}
}
