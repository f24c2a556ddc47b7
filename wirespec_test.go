package gridrdb

import (
	"context"
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestWireSpecMatchesRegisteredMethods diffs the method surface a live
// server actually registers (via system.listMethods) against the methods
// docs/WIRE.md documents. A method added without documentation, or
// documented without existing, fails CI here.
func TestWireSpecMatchesRegisteredMethods(t *testing.T) {
	_, jc1, _ := buildGrid(t)

	raw, err := jc1.Client().CallContext(context.Background(), "system.listMethods")
	if err != nil {
		t.Fatal(err)
	}
	list, ok := raw.([]interface{})
	if !ok {
		t.Fatalf("system.listMethods returned %T", raw)
	}
	registered := map[string]bool{}
	for _, v := range list {
		name, ok := v.(string)
		if !ok {
			t.Fatalf("method name is %T", v)
		}
		registered[name] = true
	}
	// system.login is documented and dispatched, but specially: the server
	// handles it before the method table (it must work without a session),
	// so listMethods does not enumerate it.
	if registered["system.login"] {
		t.Error("system.login appeared in the method table; it is dispatched pre-table")
	}
	registered["system.login"] = true

	spec, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	// Documented methods are written `name(args)` in the method-reference
	// tables (and echoed in prose with the same shape).
	re := regexp.MustCompile(`(system|dataaccess)\.[A-Za-z0-9_.]+\(`)
	documented := map[string]bool{}
	for _, m := range re.FindAllString(string(spec), -1) {
		documented[m[:len(m)-1]] = true
	}

	var missingDocs, staleDocs []string
	for m := range registered {
		if !documented[m] {
			missingDocs = append(missingDocs, m)
		}
	}
	for m := range documented {
		if !registered[m] {
			staleDocs = append(staleDocs, m)
		}
	}
	sort.Strings(missingDocs)
	sort.Strings(staleDocs)
	if len(missingDocs) > 0 {
		t.Errorf("registered but not documented in docs/WIRE.md: %v", missingDocs)
	}
	if len(staleDocs) > 0 {
		t.Errorf("documented in docs/WIRE.md but not registered: %v", staleDocs)
	}
}
