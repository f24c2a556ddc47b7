// Package linttest is the fixture harness for the gridlint analyzers, a
// dependency-free analogue of golang.org/x/tools/go/analysis/analysistest.
// A fixture is a directory of Go files under the calling test's testdata/
// annotated with `// want "regexp"` comments; Run type-checks the fixture
// against the real module packages (so analyzers match real types like
// sqlengine.RowIter and clarens.Client) and fails the test on any
// diagnostic without a matching want, or want without a matching
// diagnostic. A false-positive regression in an analyzer therefore fails
// that analyzer's own test before it can block CI.
package linttest

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gridrdb/internal/lint"
)

var (
	importerOnce sync.Once
	importerErr  error
	sharedFset   *token.FileSet
	sharedImp    types.Importer
)

// moduleRoot locates the enclosing module's directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("linttest: not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// loadImporter builds (once per process) an importer over the export
// data of every module package and its dependencies.
func loadImporter() (*token.FileSet, types.Importer, error) {
	importerOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			importerErr = err
			return
		}
		exports, err := lint.ExportIndex(root, "./...")
		if err != nil {
			importerErr = err
			return
		}
		sharedFset = token.NewFileSet()
		sharedImp = lint.NewImporter(sharedFset, exports)
	})
	return sharedFset, sharedImp, importerErr
}

// want is one expected-diagnostic annotation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantMarker extracts the quoted patterns from a `// want "..." "..."`
// tail. blockWantMarker is the `/* want "..." */` form for lines whose
// trailing position is already taken by a line comment — in practice,
// lines holding a `//lint:` directive under test, since a `//` comment
// swallows the rest of the line.
var (
	wantMarker      = regexp.MustCompile(`//\s*want\s+(.*)$`)
	blockWantMarker = regexp.MustCompile(`/\*\s*want\s+(.*?)\*/`)
)

func parseWants(t *testing.T, filename string, src []byte) []*want {
	t.Helper()
	var wants []*want
	for i, line := range strings.Split(string(src), "\n") {
		var m []string
		if m = blockWantMarker.FindStringSubmatch(line); m == nil {
			m = wantMarker.FindStringSubmatch(line)
		}
		if m == nil {
			continue
		}
		rest := strings.TrimSpace(m[1])
		for rest != "" {
			if rest[0] != '"' && rest[0] != '`' {
				t.Fatalf("%s:%d: malformed want annotation %q", filename, i+1, rest)
			}
			var lit string
			end := 1
			for ; end < len(rest); end++ {
				if rest[end] == rest[0] && rest[end-1] != '\\' {
					break
				}
			}
			if end == len(rest) {
				t.Fatalf("%s:%d: unterminated want pattern %q", filename, i+1, rest)
			}
			lit = rest[:end+1]
			rest = strings.TrimSpace(rest[end+1:])
			pat, err := strconv.Unquote(lit)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %s: %v", filename, i+1, lit, err)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: want pattern %q is not a valid regexp: %v", filename, i+1, pat, err)
			}
			wants = append(wants, &want{file: filename, line: i + 1, re: re})
		}
	}
	return wants
}

// Run analyzes the fixture directory (relative to the test's working
// directory, conventionally "testdata/<name>") as a package with import
// path pkgPath, and compares diagnostics against the fixture's want
// annotations. pkgPath decides package-scoped rules: a fixture under
// gridrdb/internal/dataaccess/... is request-path, one under
// gridrdb/internal/experiments/... is not.
func Run(t *testing.T, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	fset, imp, err := loadImporter()
	if err != nil {
		t.Fatalf("linttest: loading export data: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var filenames []string
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fn := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(fn)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		filenames = append(filenames, fn)
		wants = append(wants, parseWants(t, fn, src)...)
	}
	if len(filenames) == 0 {
		t.Fatalf("linttest: no Go files in %s", dir)
	}

	pkg, err := lint.TypeCheck(fset, imp, pkgPath, filenames)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	for _, d := range diags {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Analyzer+": "+d.Message) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmatched want on (file, line) whose pattern
// matches msg.
func claim(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if w.matched || w.line != line || w.file != file {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// fixtureImporter resolves the fixture's own packages to their locally
// type-checked form and everything else through the shared export-data
// importer — the same single-universe trick lint.Load uses, so
// cross-package object identities hold inside a multi-package fixture.
type fixtureImporter struct {
	base  types.Importer
	local map[string]*types.Package
}

func (f *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := f.local[path]; ok {
		return p, nil
	}
	return f.base.Import(path)
}

// RunModule analyzes a multi-package fixture tree with module-wide
// analyzers. Layout: .go files directly in dir form the base package
// (import path basePkgPath); each subdirectory containing .go files, at
// any depth, is a further package at basePkgPath + "/" + its relative
// path. Fixture packages may
// import each other; they are type-checked in dependency order. A
// WIRE.md in dir is passed to the suite as the wire spec (so
// wireconform fixtures carry their own protocol document), and its
// `// want` annotations participate like any fixture file's.
func RunModule(t *testing.T, ms []*lint.ModuleAnalyzer, dir, basePkgPath string) {
	t.Helper()
	fset, imp, err := loadImporter()
	if err != nil {
		t.Fatalf("linttest: loading export data: %v", err)
	}

	type fixturePkg struct {
		path  string
		files []string
	}
	byPath := map[string]*fixturePkg{}
	var wants []*want
	addFile := func(pkgPath, fn string) {
		src, err := os.ReadFile(fn)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		p := byPath[pkgPath]
		if p == nil {
			p = &fixturePkg{path: pkgPath}
			byPath[pkgPath] = p
		}
		p.files = append(p.files, fn)
		wants = append(wants, parseWants(t, fn, src)...)
	}

	err = filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgPath := basePkgPath
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		addFile(pkgPath, path)
		return nil
	})
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	if len(byPath) == 0 {
		t.Fatalf("linttest: no Go files under %s", dir)
	}

	// Dependency order among the fixture's own packages (imports of
	// anything else resolve through export data regardless of order).
	deps := map[string][]string{}
	for path, p := range byPath {
		for _, fn := range p.files {
			f, err := parser.ParseFile(token.NewFileSet(), fn, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			for _, spec := range f.Imports {
				ip, _ := strconv.Unquote(spec.Path.Value)
				if _, local := byPath[ip]; local && ip != path {
					deps[path] = append(deps[path], ip)
				}
			}
		}
	}
	var order []string
	visited := map[string]int{} // 0 unseen, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		switch visited[path] {
		case 1:
			t.Fatalf("linttest: fixture packages form an import cycle at %s", path)
		case 2:
			return
		}
		visited[path] = 1
		for _, d := range deps[path] {
			visit(d)
		}
		visited[path] = 2
		order = append(order, path)
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(path)
	}

	fimp := &fixtureImporter{base: imp, local: map[string]*types.Package{}}
	var pkgs []*lint.Package
	for _, path := range order {
		fp := byPath[path]
		sort.Strings(fp.files)
		pkg, err := lint.TypeCheck(fset, fimp, path, fp.files)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		fimp.local[path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}

	// The fixture directory is the entire "module" under test, so
	// absence checks (wireconform's stale-doc direction) are in scope.
	suite := lint.Suite{Module: ms, FullModule: true}
	wirePath := filepath.Join(dir, "WIRE.md")
	if spec, err := os.ReadFile(wirePath); err == nil {
		suite.WireSpec = spec
		suite.WireSpecPath = wirePath
		wants = append(wants, parseWants(t, wirePath, spec)...)
	}

	diags, err := lint.RunSuite(pkgs, suite)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	for _, d := range diags {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Analyzer+": "+d.Message) {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}
