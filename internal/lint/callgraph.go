package lint

// The interprocedural layer: a module-wide call graph over the packages
// Load produced (one type-checking universe, see load.go), condensed
// into strongly connected components so summaries (summary.go) can be
// computed bottom-up even through recursion.
//
// Resolution is deliberately an over-approximation where Go's dynamism
// defeats precision:
//
//   - A call through an interface method edges to every method of a
//     module-declared concrete type that implements the interface
//     (declared-type over-approximation).
//   - A call of a func-typed struct field (callback fields like a
//     cache's OnEvict) edges to every function value the module ever
//     assigns to that (type, field).
//   - A call of a local func variable resolves only in the
//     single-assignment-of-a-literal case (`f := func(){...}; f()`);
//     other func-valued locals and parameters resolve to nothing and
//     are treated as external calls.
//
// Function literals are first-class nodes (they are where goroutine
// bodies live); a literal is linked to its enclosing function by a
// containment edge, except when it is the operand of a `go` statement —
// a spawned body runs asynchronously, so its effects must not be
// attributed to the spawner. Spawn sites are recorded separately as
// GoSites.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Node is one function body in the call graph: a declared function or
// method, or a function literal.
type Node struct {
	// Index is the node's position in Graph.Nodes — deterministic for a
	// given module (packages in load order, declarations in file order,
	// literals in traversal order).
	Index int
	// Name is the printable identity: "pkg.Func", "pkg.Type.Method", or
	// "pkg.Func$<n>" for the n-th literal inside Func.
	Name string
	Func *types.Func  // nil for a literal
	Lit  *ast.FuncLit // nil for a declared function
	Pkg  *Package
	Body *ast.BlockStmt
	Pos  token.Pos

	// Parent is the enclosing node of a literal (nil for declared
	// functions). GoSpawned marks a literal that is the operand of a go
	// statement.
	Parent    *Node
	GoSpawned bool

	// Calls holds the resolved synchronous callees: static calls,
	// dispatch over-approximations, and containment of non-spawned
	// literals. Sorted by Index, deduplicated.
	Calls []*Node
	// GoSites are the go statements syntactically in this body (not in
	// nested literals, which carry their own).
	GoSites []GoSite

	// scc is filled by condense().
	scc *SCC

	summary Summary // computed by ComputeSummaries
}

// GoSite is one `go` statement.
type GoSite struct {
	Pos token.Pos
	// Callees are the resolved spawned bodies (a literal node, a
	// declared function, or several under dispatch). Empty means the
	// spawned function is external to the module — treated as bounded.
	Callees []*Node
}

// SCC is one strongly connected component of the call graph. Members
// are sorted by Index; SCCs are numbered in reverse topological order
// (callees before callers), so iterating Graph.SCCs front to back
// visits every callee SCC before any of its callers.
type SCC struct {
	ID      int
	Members []*Node
}

// Graph is the module call graph.
type Graph struct {
	Pkgs  []*Package
	Nodes []*Node
	// SCCs in bottom-up (reverse topological) order.
	SCCs []*SCC

	byKey map[string]*Node // declared functions by funcKey
	byLit map[*ast.FuncLit]*Node

	// closedChans / bufferedChans hold the module-wide channel facts the
	// summaries consume: identities (chanIdent) of channels that some
	// statement close()s, and of channels created with a non-zero
	// buffer.
	closedChans   map[string]bool
	bufferedChans map[string]bool

	// fieldFuncs maps a func-typed struct field identity ("pkg.Type.field")
	// to every function value the module assigns to it.
	fieldFuncs map[string][]*Node

	// namedTypes are all non-interface named types declared in the
	// analyzed packages, for interface-dispatch over-approximation.
	namedTypes []*types.Named
	implCache  map[string][]*Node
}

// funcKey is the universe-stable identity of a declared function:
// "pkgpath.Name" or "pkgpath.Recv.Name" for methods.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n, ok := deref(recv.Type()).(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + fn.Name()
		}
		return pkg + ".(" + recv.Type().String() + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// BuildGraph constructs the call graph over pkgs. The packages must
// come from one Load call (single universe).
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		Pkgs:          pkgs,
		byKey:         map[string]*Node{},
		byLit:         map[*ast.FuncLit]*Node{},
		closedChans:   map[string]bool{},
		bufferedChans: map[string]bool{},
		fieldFuncs:    map[string][]*Node{},
		implCache:     map[string][]*Node{},
	}
	// Pass 1: nodes. Declared functions first (file order), then each
	// body's literals in traversal order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &Node{
					Index: len(g.Nodes),
					Name:  funcKey(obj),
					Func:  obj,
					Pkg:   pkg,
					Body:  fd.Body,
					Pos:   fd.Pos(),
				}
				g.Nodes = append(g.Nodes, n)
				g.byKey[n.Name] = n
				g.addLiterals(n)
			}
		}
		// Named types for interface dispatch.
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				g.namedTypes = append(g.namedTypes, named)
			}
		}
	}
	// Pass 2: module-wide channel and callback facts.
	for _, n := range g.Nodes {
		g.collectFacts(n)
	}
	// Pass 3: edges and go sites.
	for _, n := range g.Nodes {
		g.resolveBody(n)
	}
	g.condense()
	return g
}

// addLiterals creates child nodes for every function literal directly
// inside parent's body (literals inside those literals belong to the
// child, recursively).
func (g *Graph) addLiterals(parent *Node) {
	seq := 0
	var walk func(n ast.Node, owner *Node)
	walk = func(root ast.Node, owner *Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == root {
				return true
			}
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			seq++
			child := &Node{
				Index:  len(g.Nodes),
				Name:   fmt.Sprintf("%s$%d", declaredName(owner), seq),
				Lit:    lit,
				Pkg:    owner.Pkg,
				Body:   lit.Body,
				Pos:    lit.Pos(),
				Parent: owner,
			}
			g.Nodes = append(g.Nodes, child)
			g.byLit[lit] = child
			walk(lit.Body, child)
			return false // children of this literal were just claimed
		})
	}
	walk(parent.Body, parent)
}

// declaredName walks up to the enclosing declared function's name.
func declaredName(n *Node) string {
	for n.Parent != nil {
		n = n.Parent
	}
	return n.Name
}

// collectFacts records close() targets, buffered makes, and func-field
// assignments from one body (excluding nested literals — they are
// visited as their own nodes).
func (g *Graph) collectFacts(node *Node) {
	info := node.Pkg.Info
	inspectOwn(node, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && info.Uses[id] == types.Universe.Lookup("close") && len(n.Args) == 1 {
				if key := chanIdent(info, n.Args[0]); key != "" {
					g.closedChans[key] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				g.recordMake(info, n.Lhs[i], rhs)
				g.recordFuncAssign(info, n.Lhs[i], rhs)
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i >= len(n.Names) {
					break
				}
				g.recordMake(info, n.Names[i], v)
			}
		case *ast.CompositeLit:
			g.recordCompositeFuncs(info, n)
		}
	})
}

// recordMake marks lhs's channel identity buffered when rhs is a
// make(chan T, n) with a buffer argument.
func (g *Graph) recordMake(info *types.Info, lhs ast.Expr, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || info.Uses[id] != types.Universe.Lookup("make") {
		return
	}
	if _, isChan := info.Types[call.Args[0]].Type.(*types.Chan); !isChan {
		return
	}
	if key := chanIdent(info, lhs); key != "" {
		g.bufferedChans[key] = true
	}
}

// recordFuncAssign records `x.field = fn` for func-typed fields.
func (g *Graph) recordFuncAssign(info *types.Info, lhs, rhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	key := fieldIdent(info, sel)
	if key == "" {
		return
	}
	if fn := g.funcValue(info, rhs); fn != nil {
		g.fieldFuncs[key] = appendNode(g.fieldFuncs[key], fn)
	}
}

// recordCompositeFuncs records `T{Field: fn}` for func-typed fields.
func (g *Graph) recordCompositeFuncs(info *types.Info, cl *ast.CompositeLit) {
	named, ok := deref(info.Types[cl].Type).(*types.Named)
	if !ok {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if fn := g.funcValue(info, kv.Value); fn != nil {
			id := typeFullName(named) + "." + key.Name
			g.fieldFuncs[id] = appendNode(g.fieldFuncs[id], fn)
		}
	}
}

// funcValue resolves an expression used as a function value: a named
// function or method value, or a literal.
func (g *Graph) funcValue(info *types.Info, e ast.Expr) *Node {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return g.byKey[funcKey(fn)]
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return g.byKey[funcKey(fn)]
		}
	}
	return nil
}

func appendNode(list []*Node, n *Node) []*Node {
	for _, have := range list {
		if have == n {
			return list
		}
	}
	return append(list, n)
}

// resolveBody fills node.Calls and node.GoSites.
func (g *Graph) resolveBody(node *Node) {
	info := node.Pkg.Info
	// Single-assignment func locals: `f := func(){...}` makes calls of f
	// resolve to that literal (only when f is never reassigned).
	litLocals := map[types.Object]*Node{}
	reassigned := map[types.Object]bool{}
	inspectOwn(node, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				if obj = info.Uses[id]; obj != nil {
					reassigned[obj] = true
				}
				continue
			}
			if i < len(as.Rhs) {
				if lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
					litLocals[obj] = g.byLit[lit]
				}
			}
		}
	})

	var calls []*Node
	inspectOwn(node, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			site := GoSite{Pos: n.Pos()}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				child := g.byLit[lit]
				child.GoSpawned = true
				site.Callees = []*Node{child}
			} else {
				site.Callees = g.resolveCall(node, n.Call, litLocals, reassigned)
			}
			node.GoSites = append(node.GoSites, site)
		case *ast.FuncLit:
			// Direct child literal: containment edge unless go-spawned
			// (GoStmt case above claims those via site.Callees).
			if child := g.byLit[n]; child != nil && child.Parent == node {
				calls = append(calls, child)
			}
		case *ast.CallExpr:
			if _, isLit := ast.Unparen(n.Fun).(*ast.FuncLit); isLit {
				return // containment edge already covers the literal
			}
			calls = append(calls, g.resolveCall(node, n, litLocals, reassigned)...)
		}
	})
	// Drop go-spawned children from Calls (added via the FuncLit case
	// before the GoStmt marked them; order of Inspect visits GoStmt
	// first, but keep this robust either way).
	out := calls[:0]
	for _, c := range calls {
		if c.GoSpawned && c.Parent == node {
			continue
		}
		out = append(out, c)
	}
	node.Calls = sortNodes(out)
}

// resolveCall resolves one call expression to zero or more callee
// nodes.
func (g *Graph) resolveCall(node *Node, call *ast.CallExpr, litLocals map[types.Object]*Node, reassigned map[types.Object]bool) []*Node {
	info := node.Pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				if n := g.byKey[funcKey(fn)]; n != nil {
					return []*Node{n}
				}
				return nil
			}
			if lit := litLocals[obj]; lit != nil && !reassigned[obj] {
				return []*Node{lit}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn := sel.Obj().(*types.Func)
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					return g.implementations(iface, fn.Name())
				}
				if n := g.byKey[funcKey(fn)]; n != nil {
					return []*Node{n}
				}
			case types.FieldVal:
				// Callback through a func-typed field: every value the
				// module assigns to the field.
				if key := fieldIdent(info, fun); key != "" {
					return sortNodes(append([]*Node(nil), g.fieldFuncs[key]...))
				}
			}
			return nil
		}
		// Package-qualified call.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if n := g.byKey[funcKey(fn)]; n != nil {
				return []*Node{n}
			}
		}
	}
	return nil
}

// implementations returns the nodes of method name on every
// module-declared concrete type implementing iface.
func (g *Graph) implementations(iface *types.Interface, name string) []*Node {
	cacheKey := iface.String() + "\x00" + name
	if got, ok := g.implCache[cacheKey]; ok {
		return got
	}
	var out []*Node
	for _, named := range g.namedTypes {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			if n := g.byKey[funcKey(fn)]; n != nil {
				out = appendNode(out, n)
			}
		}
	}
	out = sortNodes(out)
	g.implCache[cacheKey] = out
	return out
}

func sortNodes(nodes []*Node) []*Node {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Index < nodes[j].Index })
	out := nodes[:0]
	var prev *Node
	for _, n := range nodes {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

// inspectOwn walks node's body without descending into nested function
// literals (each literal is its own node). The literal expression
// itself is still visited (so resolveBody can record containment).
func inspectOwn(node *Node, fn func(ast.Node)) {
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != node.Lit {
			fn(n)
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// ---- channel and field identity ----

// chanIdent names a channel-valued expression in a way that is stable
// across instances: a struct field becomes "pkg.Type.field" (every
// instance of the type shares the identity — the over-approximation
// that lets `close(r.stop)` in one method witness `<-r.stop` in
// another), a package-level or local variable becomes its object's
// position-qualified name. Unnameable expressions return "".
func chanIdent(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return fieldIdent(info, e)
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return ""
		}
		if obj.Pkg() != nil {
			return fmt.Sprintf("%s.%s@%d", obj.Pkg().Path(), obj.Name(), obj.Pos())
		}
		return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
	}
	return ""
}

// fieldIdent names a selector of a struct field as "pkg.Type.field",
// or "" when the receiver type is unnamed or the selector is not a
// field access.
func fieldIdent(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if ok {
		if s.Kind() != types.FieldVal {
			return ""
		}
		if named, ok := deref(s.Recv()).(*types.Named); ok {
			return typeFullName(named) + "." + sel.Sel.Name
		}
		return ""
	}
	// Package-qualified variable (pkg.Var).
	if obj, ok := info.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil && !obj.IsField() {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return ""
}

func typeFullName(n *types.Named) string {
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// ---- SCC condensation (Tarjan, iterative) ----

func (g *Graph) condense() {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	// succ includes spawned bodies: recursion through a go statement is
	// still recursion for condensation purposes (summaries decide
	// separately what propagates across a spawn).
	succ := func(v int) []int {
		node := g.Nodes[v]
		out := make([]int, 0, len(node.Calls)+len(node.GoSites))
		for _, c := range node.Calls {
			out = append(out, c.Index)
		}
		for _, s := range node.GoSites {
			for _, c := range s.Callees {
				out = append(out, c.Index)
			}
		}
		return out
	}

	type frame struct {
		v    int
		succ []int
		i    int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root, succ: succ(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succ: succ(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			if low[v] == index[v] {
				scc := &SCC{}
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc.Members = append(scc.Members, g.Nodes[w])
					if w == v {
						break
					}
				}
				sort.Slice(scc.Members, func(i, j int) bool {
					return scc.Members[i].Index < scc.Members[j].Index
				})
				for _, m := range scc.Members {
					m.scc = scc
				}
				scc.ID = len(g.SCCs)
				g.SCCs = append(g.SCCs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	// Tarjan emits SCCs in reverse topological order already (an SCC is
	// completed only after everything it reaches): g.SCCs is bottom-up.
}

// String implements fmt.Stringer for debugging.
func (n *Node) String() string { return n.Name }

// requestPathRoots returns every declared function of a request-path
// package, the goroleak reachability roots.
func (g *Graph) requestPathRoots() []*Node {
	var roots []*Node
	for _, n := range g.Nodes {
		if n.Func != nil && isRequestPath(n.Pkg.Path) {
			roots = append(roots, n)
		}
	}
	return roots
}

// Reachable computes the closure of roots over synchronous calls,
// containment, and goroutine spawns.
func (g *Graph) Reachable(roots []*Node) map[*Node]bool {
	seen := map[*Node]bool{}
	var stack []*Node
	push := func(n *Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range n.Calls {
			push(c)
		}
		for _, s := range n.GoSites {
			for _, c := range s.Callees {
				push(c)
			}
		}
	}
	return seen
}

// DescribePos renders a position compactly for cycle messages
// ("cursor.go:123").
func DescribePos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
