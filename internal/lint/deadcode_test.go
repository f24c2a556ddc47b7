package lint_test

import (
	"testing"

	"gridrdb/internal/lint"
	"gridrdb/internal/lint/linttest"
)

// The fixture is a small module: an importable facade re-exporting an
// internal type by alias, an internal package, a test-support package
// and a main. Each root kind (main, init, blank and read package vars,
// facade and alias API, test-support API, external-interface and sealed
// tag methods, interface dispatch, func values, go statements) keeps
// something alive, and each unreachable kind is reported.
func TestDeadCode(t *testing.T) {
	linttest.RunModule(t, []*lint.ModuleAnalyzer{lint.DeadCode},
		"testdata/deadcode", "gridrdb/lintfixture/deadcode")
}
