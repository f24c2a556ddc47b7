package lint

// White-box tests of the interprocedural layer: graph construction
// determinism, interface-dispatch over-approximation, SCC condensation
// order, and bottom-up summary propagation — the guarantees lockorder
// and goroleak are built on.

import (
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const cgFixtureBase = "gridrdb/internal/dataaccess/lintfixture/callgraph"

var (
	cgOnce sync.Once
	cgErr  error
	cgPkgs []*Package
)

// loadCallgraphFixture type-checks testdata/callgraph/{a,b} into one
// universe shared with the real module's export data, like Load does.
func loadCallgraphFixture(t *testing.T) []*Package {
	t.Helper()
	cgOnce.Do(func() {
		out, err := exec.Command("go", "env", "GOMOD").Output()
		if err != nil {
			cgErr = err
			return
		}
		root := filepath.Dir(strings.TrimSpace(string(out)))
		exports, err := ExportIndex(root, "./...")
		if err != nil {
			cgErr = err
			return
		}
		fset := token.NewFileSet()
		imp := &unifyingImporter{
			base:    NewImporter(fset, exports),
			checked: map[string]*types.Package{},
		}
		for _, sub := range []string{"a", "b"} { // a before b: b imports a
			dir := filepath.Join("testdata", "callgraph", sub)
			entries, err := os.ReadDir(dir)
			if err != nil {
				cgErr = err
				return
			}
			var files []string
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".go") {
					files = append(files, filepath.Join(dir, e.Name()))
				}
			}
			path := cgFixtureBase + "/" + sub
			pkg, err := TypeCheck(fset, imp, path, files)
			if err != nil {
				cgErr = err
				return
			}
			imp.checked[path] = pkg.Types
			cgPkgs = append(cgPkgs, pkg)
		}
	})
	if cgErr != nil {
		t.Fatalf("loading callgraph fixture: %v", cgErr)
	}
	return cgPkgs
}

func findNode(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no node named %q; have %v", name, nodeNames(g.Nodes))
	return nil
}

func nodeNames(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

func TestBuildGraphDeterministic(t *testing.T) {
	pkgs := loadCallgraphFixture(t)
	g1 := BuildGraph(pkgs)
	g2 := BuildGraph(pkgs)
	n1, n2 := nodeNames(g1.Nodes), nodeNames(g2.Nodes)
	if len(n1) != len(n2) {
		t.Fatalf("node counts differ: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("node order differs at %d: %q vs %q", i, n1[i], n2[i])
		}
		if g1.Nodes[i].Index != i {
			t.Fatalf("node %q has Index %d at position %d", n1[i], g1.Nodes[i].Index, i)
		}
	}
	// Packages in load order, declarations in file order.
	want := []string{
		cgFixtureBase + "/a.Impl1.M",
		cgFixtureBase + "/a.Guard.Locked",
		cgFixtureBase + "/a.Dispatch",
		cgFixtureBase + "/a.Rec1",
		cgFixtureBase + "/a.Rec2",
		cgFixtureBase + "/a.UsesGuard",
		cgFixtureBase + "/b.Impl2.M",
		cgFixtureBase + "/b.forever",
		cgFixtureBase + "/b.Call",
	}
	if len(n1) != len(want) {
		t.Fatalf("got %d nodes %v, want %d", len(n1), n1, len(want))
	}
	for i, w := range want {
		if n1[i] != w {
			t.Errorf("node %d = %q, want %q", i, n1[i], w)
		}
	}
}

func TestInterfaceDispatchOverApproximation(t *testing.T) {
	g := BuildGraph(loadCallgraphFixture(t))
	dispatch := findNode(t, g, cgFixtureBase+"/a.Dispatch")
	got := map[string]bool{}
	for _, c := range dispatch.Calls {
		got[c.Name] = true
	}
	for _, want := range []string{cgFixtureBase + "/a.Impl1.M", cgFixtureBase + "/b.Impl2.M"} {
		if !got[want] {
			t.Errorf("Dispatch should edge to %s under declared-type over-approximation; has %v",
				want, nodeNames(dispatch.Calls))
		}
	}
}

func TestSCCCondensation(t *testing.T) {
	g := BuildGraph(loadCallgraphFixture(t))
	rec1 := findNode(t, g, cgFixtureBase+"/a.Rec1")
	rec2 := findNode(t, g, cgFixtureBase+"/a.Rec2")
	if rec1.scc != rec2.scc {
		t.Errorf("mutually recursive Rec1/Rec2 should share an SCC")
	}
	if members := rec1.scc.Members; len(members) != 2 {
		t.Errorf("Rec1's SCC has members %v, want exactly {Rec1, Rec2}", nodeNames(members))
	}
	// Bottom-up order: a callee's SCC precedes its caller's.
	locked := findNode(t, g, cgFixtureBase+"/a.Guard.Locked")
	uses := findNode(t, g, cgFixtureBase+"/a.UsesGuard")
	if locked.scc.ID >= uses.scc.ID {
		t.Errorf("callee SCC (Locked, id %d) should precede caller SCC (UsesGuard, id %d)",
			locked.scc.ID, uses.scc.ID)
	}
	for i, scc := range g.SCCs {
		if scc.ID != i {
			t.Fatalf("SCC at position %d has ID %d", i, scc.ID)
		}
	}
}

func TestSummaryPropagation(t *testing.T) {
	g := BuildGraph(loadCallgraphFixture(t))
	g.ComputeSummaries()

	// Transitive lock acquisition: UsesGuard never touches mu itself.
	uses := findNode(t, g, cgFixtureBase+"/a.UsesGuard")
	lockID := cgFixtureBase + "/a.Guard.mu"
	if _, ok := uses.Summary().Acquires[lockID]; !ok {
		t.Errorf("UsesGuard summary should acquire %s transitively; has %v", lockID, uses.Summary().Acquires)
	}

	// Unbounded flows through dispatch: Dispatch may run Impl2.M, which
	// reaches forever()'s condition-less loop.
	dispatch := findNode(t, g, cgFixtureBase+"/a.Dispatch")
	if !dispatch.Summary().Unbounded {
		t.Errorf("Dispatch summary should be Unbounded via the Impl2.M implementation")
	}
	call := findNode(t, g, cgFixtureBase+"/b.Call")
	if !call.Summary().Unbounded {
		t.Errorf("Call summary should inherit Unbounded across the package boundary")
	}

	// Recursion converges to the SCC union without marking phantom facts.
	rec1 := findNode(t, g, cgFixtureBase+"/a.Rec1")
	if rec1.Summary().Unbounded {
		t.Errorf("Rec1 is bounded recursion; summary says Unbounded at %v", rec1.Summary().UnboundedPos)
	}
	if len(rec1.Summary().Acquires) != 0 {
		t.Errorf("Rec1 acquires nothing; summary has %v", rec1.Summary().Acquires)
	}
}
