package sqlengine

import (
	"fmt"
	"io"
	"sync"
)

// Exports for federated_test.go, which runs the generated differential's
// statements on a federation of its tables (package sqlengine_test, so it
// may import the federation), for value_fuzz_test.go (package
// sqlengine_test, so it may import the wire transport), the
// access-path hook the differentials read to show which path ran, and the
// replay command both differentials print.

// GenFederatedSelect writes the generated differential's statement for
// one seed in its federated form (see selectGen.federated), and reports
// whether it has a bare column name.
func GenFederatedSelect(seed int64) (string, bool) { return genSelect(seed, true) }

// Replay is the command that reruns one failing seed: the Test
// function's subtest for a seed it runs (0 to seeds-1), else the fuzz
// target's corpus entry holding the seed, since only fuzzing reaches
// seeds outside that range.
func Replay(test string, seeds int64, fuzz string, seed int64) string {
	if seed >= 0 && seed < seeds {
		return fmt.Sprintf("go test ./internal/sqlengine -run '%s/seed=%d$'", test, seed)
	}
	return fmt.Sprintf("go test ./internal/sqlengine -run '%s/<entry>', where testdata/fuzz/%s/<entry> holds int64(%d)", fuzz, fuzz, seed)
}

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
	e.db.pathHook = func(table, path string) {
		l.mu.Lock()
		l.paths = append(l.paths, table+":"+path)
		l.mu.Unlock()
	}
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
