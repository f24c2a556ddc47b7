package sqlengine

import (
	"fmt"
	"io"
	"sync"
)

// Exports for federated_test.go, which runs the generated differential's
// statements on a federation of its tables (package sqlengine_test, so it
// may import the federation), for value_fuzz_test.go (package
// sqlengine_test, so it may import the wire transport), and the
// access-path hook the differentials read to show which path ran.

// GenFederatedSelect writes the generated differential's statement for
// one seed in its federated form (see selectGen.federated), and reports
// whether it has a bare column name.
func GenFederatedSelect(seed int64) (string, bool) { return genSelect(seed, true) }

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

// SpillRoundTrip writes row to a spill file under dir and reads it back.
func SpillRoundTrip(dir string, row Row) (Row, error) {
	sd, err := newSpillDir(dir, nil)
	if err != nil {
		return nil, err
	}
	defer sd.remove()
	sw, err := sd.newWriter("fuzz")
	if err != nil {
		return nil, err
	}
	if err := sw.writeRow(row); err != nil {
		return nil, err
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	sr, err := openSpill(sw.path)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	back, err := sr.readRow()
	if err != nil {
		return nil, err
	}
	if _, err := sr.readRow(); err != io.EOF {
		return nil, fmt.Errorf("after the only row: %v, want io.EOF", err)
	}
	return back, nil
}
