package sqlengine

// Exports for federated_test.go, which runs the generated differential's
// statements on a federation of its tables (package sqlengine_test, so it
// may import the federation).

// GenFederatedSelect writes the generated differential's statement for
// one seed in its federated form (see selectGen.federated).
func GenFederatedSelect(seed int64) string { return genSelect(seed, true) }

// DiffTableScripts maps each table of the differential's fixture (not its
// view) to the script creating it.
func DiffTableScripts() map[string]string {
	out := map[string]string{}
	for _, t := range diffTables[:len(diffTables)-1] {
		out[t.name] = t.script
	}
	return out
}
