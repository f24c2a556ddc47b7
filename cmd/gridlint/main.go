// Command gridlint runs the grid's custom static-analysis suite
// (internal/lint) over the given package patterns and fails if any
// invariant is violated:
//
//	go run ./cmd/gridlint ./...
//
// The suite has two layers: per-package analyzers, and module-wide
// analyzers (lockorder, goroleak, wireconform, deadcode) that run once
// over a call graph of everything loaded. Each finding prints as
// file:line:col: analyzer: message, or as one JSON object per line
// under -json:
//
//	{"file":"internal/x/y.go","line":12,"col":3,"analyzer":"goroleak","message":"..."}
//
// A finding may be suppressed two ways:
//
//   - An explicit `//lint:ignore <analyzer> <reason>` directive on or
//     immediately above the offending line; the reason is mandatory and
//     unused directives are themselves errors, so the suppression list
//     stays exact. This is the durable escape hatch.
//   - A baseline file (-baseline): findings already recorded there are
//     filtered out, so CI fails only on NEW findings. Matching ignores
//     line numbers (a baselined finding does not reappear because code
//     above it moved); it is keyed on (file, analyzer, message), as a
//     multiset. Regenerate with -write-baseline after deliberately
//     accepting current findings. The baseline is for adopting a new
//     analyzer over existing debt; prefer fixing or //lint:ignore.
//
// The rules, the production failures they prevent, and their escape
// hatches are documented in docs/INVARIANTS.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"gridrdb/internal/lint"
)

// finding is the -json / baseline record. Field order is part of the
// output contract (the CI problem matcher and the committed baseline
// both read it), so it only grows, never reorders.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// baselineKey ignores position-within-file: code moving above a
// baselined finding must not resurrect it.
func (f finding) baselineKey() string {
	return f.File + "\x00" + f.Analyzer + "\x00" + f.Message
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	baselinePath := flag.String("baseline", "", "filter out findings recorded in this baseline file; fail only on new ones")
	writeBaseline := flag.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gridlint [-list] [-json] [-baseline file | -write-baseline file] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the gridrdb invariant checkers (see docs/INVARIANTS.md).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.AllModule() {
			fmt.Printf("%-16s [module] %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root := moduleRoot(wd)

	pkgs, err := lint.Load(wd, patterns)
	if err != nil {
		fatal(err)
	}

	suite := lint.Suite{Analyzers: lint.All(), Module: lint.AllModule()}
	// Wireconform's "documented but never registered" direction and
	// deadcode are only sound when every package in the module was
	// loaded — a partial pattern (e.g. ./... from a subdirectory) would
	// blame methods whose registering package or caller was simply not
	// in the load.
	suite.FullModule = wd == root && len(patterns) == 1 && patterns[0] == "./..."
	const wireSpecRel = "docs/WIRE.md"
	if spec, err := os.ReadFile(filepath.Join(root, wireSpecRel)); err == nil {
		suite.WireSpec = spec
		suite.WireSpecPath = wireSpecRel
	}
	diags, err := lint.RunSuite(pkgs, suite)
	if err != nil {
		fatal(err)
	}

	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, finding{
			File:     relPath(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}

	if *writeBaseline != "" {
		if err := saveBaseline(*writeBaseline, findings); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gridlint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return
	}

	suppressed := 0
	if *baselinePath != "" {
		old, err := loadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		kept := findings[:0]
		for _, f := range findings {
			if old[f.baselineKey()] > 0 {
				old[f.baselineKey()]--
				suppressed++
				continue
			}
			kept = append(kept, f)
		}
		findings = kept
	}

	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	for _, f := range findings {
		if *jsonOut {
			if err := enc.Encode(f); err != nil {
				fatal(err)
			}
		} else {
			fmt.Fprintf(out, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	out.Flush()

	if suppressed > 0 {
		fmt.Fprintf(os.Stderr, "gridlint: %d baselined finding(s) suppressed\n", suppressed)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gridlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridlint:", err)
	os.Exit(2)
}

// moduleRoot resolves the enclosing module's directory so findings and
// the wire spec use stable module-relative paths no matter where
// gridlint was invoked. Falls back to wd outside a module.
func moduleRoot(wd string) string {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = wd
	out, err := cmd.Output()
	gomod := strings.TrimSpace(string(out))
	if err != nil || gomod == "" || gomod == os.DevNull {
		return wd
	}
	return filepath.Dir(gomod)
}

func relPath(root, name string) string {
	if !filepath.IsAbs(name) {
		return filepath.ToSlash(name)
	}
	rel, err := filepath.Rel(root, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(name)
	}
	return filepath.ToSlash(rel)
}

// loadBaseline reads a JSONL baseline into a multiset: the same
// (file, analyzer, message) may legitimately occur on several lines.
func loadBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	counts := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var f finding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			return nil, fmt.Errorf("baseline %s:%d: %w", path, i+1, err)
		}
		counts[f.baselineKey()]++
	}
	return counts, nil
}

func saveBaseline(path string, findings []finding) error {
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, f := range findings {
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
