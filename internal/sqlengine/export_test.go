package sqlengine

import "sync"

// Exports for federated_test.go, which runs the generated differential's
// statements on a federation of its tables (package sqlengine_test, so it
// may import the federation), and the access-path hook the differentials
// read to show which path ran.

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

// pathLog records the access path (access.go) of every table read of
// e's SELECTs, as "table:path", through the database's pathHook.
type pathLog struct {
	mu    sync.Mutex
	paths []string
}

func recordPaths(e *Engine) *pathLog {
	l := &pathLog{}
	e.db.mu.Lock()
	e.db.pathHook = func(table, path string) {
		l.mu.Lock()
		l.paths = append(l.paths, table+":"+path)
		l.mu.Unlock()
	}
	e.db.mu.Unlock()
	return l
}

// take returns the paths recorded since the last take.
func (l *pathLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.paths
	l.paths = nil
	return out
}
