package lint

// DeadCode: every function in the module must be reachable from a
// program root. Tests are not part of the load (see load.go), so a
// function only a _test.go file calls is dead production code: it
// belongs in the test file, or nowhere.
//
// Roots:
//
//   - main.main and every init function;
//   - package-level var initializers that run for their side effects
//     (`var _ = f()`); a named var's initializer is reachable once
//     reachable code reads the var;
//   - the importable facade: exported functions and methods of every
//     package that is neither main nor under an internal/ directory
//     (the root gridrdb package is the module's public API);
//   - exported functions of test-support packages, whose import path
//     ends in "test" (leaktest, linttest): they exist for _test.go
//     callers by design;
//   - methods satisfying an interface declared outside the module
//     (error, fmt.Stringer, sort.Interface, http.Handler,
//     database/sql/driver.*): code outside the module calls them
//     through that interface.
//
// Reachability follows the call graph (static calls, interface and
// func-field dispatch over-approximated to every module implementation,
// literal containment, go statements) plus every reference to a
// function as a value — a method value handed to
// clarens.Server.Register, http.HandleFunc or sort.Slice keeps its
// target alive. The check is about absence, so it runs on full-module
// loads only.
//
// Kept API that nothing calls yet is suppressed with
//
//	//lint:ignore deadcode <why it stays>
//
// on the function's line or the line above.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var DeadCode = &ModuleAnalyzer{
	Name: "deadcode",
	Doc:  "every function is reachable from a main, an init, the importable facade or an external interface — code only tests call belongs in a _test.go file",
	Run:  runDeadCode,
}

func runDeadCode(pass *ModulePass) error {
	if !pass.FullModule {
		return nil
	}
	g := pass.Graph
	r := &reach{g: g, live: map[*Node]bool{}, inits: map[*types.Var]varInit{}, read: map[*types.Var]bool{}}
	var blank []varInit
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					init := varInit{pkg.Info, vs.Values}
					for _, name := range vs.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok && name.Name != "_" {
							r.inits[v] = init
						} else {
							blank = append(blank, init)
						}
					}
				}
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Func != nil && isDeadcodeRoot(n) {
			r.mark(n)
		}
	}
	r.mark(aliasedAPI(pass.Pkgs, g)...)
	r.mark(interfaceRoots(g)...)
	for _, init := range blank {
		for _, e := range init.exprs {
			r.walk(init.info, e)
		}
	}
	r.drain()

	for _, n := range g.Nodes {
		if n.Func == nil || r.live[n] {
			continue
		}
		pass.Reportf(n.Func.Pos(),
			"%s is unreachable from every root (main, init, the importable facade, external-interface methods) — delete it, move it to a _test.go file if only tests call it, or //lint:ignore deadcode <why it stays>",
			shortFuncName(n.Func))
	}
	return nil
}

// isDeadcodeRoot reports whether a declared function is a root by its
// own declaration: main, init, facade API or test-support API.
func isDeadcodeRoot(n *Node) bool {
	fn := n.Func
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		if fn.Name() == "init" || (fn.Name() == "main" && n.Pkg.Types.Name() == "main") {
			return true
		}
	}
	if !fn.Exported() || n.Pkg.Types.Name() == "main" {
		return false
	}
	path := n.Pkg.Path
	return strings.HasSuffix(path, "test") || !isInternalPath(path)
}

// aliasedAPI returns the exported methods of the types an importable
// package re-exports by alias (`type Engine = sqlengine.Engine`): they
// are facade API as much as the package's own declarations.
func aliasedAPI(pkgs []*Package, g *Graph) []*Node {
	var out []*Node
	for _, pkg := range pkgs {
		if pkg.Types.Name() == "main" || isInternalPath(pkg.Path) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !tn.IsAlias() {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < mset.Len(); i++ {
				if fn, ok := mset.At(i).Obj().(*types.Func); ok && fn.Exported() {
					out = append(out, g.byKey[funcKey(fn)])
				}
			}
		}
	}
	return out
}

// isInternalPath reports whether path has an internal/ element, making
// it unimportable from outside the module.
func isInternalPath(path string) bool {
	return path == "internal" || strings.HasPrefix(path, "internal/") ||
		strings.HasSuffix(path, "/internal") || strings.Contains(path, "/internal/")
}

// interfaceRoots returns the methods of module types that implement an
// interface declared outside the module — error, and every method-only,
// non-generic interface in the packages the module imports,
// transitively — plus the tag methods of sealed module interfaces: an
// unexported method with no parameters or results that a module
// interface declares is never called, but deleting it would unseal the
// type from its interface.
func interfaceRoots(g *Graph) []*Node {
	module := map[*types.Package]bool{}
	for _, pkg := range g.Pkgs {
		module[pkg.Types] = true
	}
	type iface struct {
		it       *types.Interface
		external bool
	}
	ifaces := []iface{{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true}}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || (!module[p] && !tn.Exported()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, iface{it, !module[p]})
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range g.Pkgs {
		visit(pkg.Types)
	}

	var out []*Node
	for _, named := range g.namedTypes {
		ptr := types.NewPointer(named)
		have := map[string]bool{}
		mset := types.NewMethodSet(ptr)
		for i := 0; i < mset.Len(); i++ {
			have[mset.At(i).Obj().Name()] = true
		}
		for _, in := range ifaces {
			if !hasAllNames(in.it, have) || !types.Implements(ptr, in.it) {
				continue
			}
			for i := 0; i < in.it.NumMethods(); i++ {
				m := in.it.Method(i)
				sig := m.Type().(*types.Signature)
				if !in.external && (m.Exported() || sig.Params().Len()+sig.Results().Len() > 0) {
					continue // a module interface's method lives only through dispatch
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					if n := g.byKey[funcKey(fn)]; n != nil {
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

func hasAllNames(it *types.Interface, have map[string]bool) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if !have[it.Method(i).Name()] {
			return false
		}
	}
	return true
}

// reach is the deadcode worklist: the call-graph nodes marked live, and
// the package-level vars whose initializers have been walked.
type reach struct {
	g     *Graph
	live  map[*Node]bool
	stack []*Node
	inits map[*types.Var]varInit
	read  map[*types.Var]bool
}

// varInit is a package-level var's initializer, which runs once the var
// is read.
type varInit struct {
	info  *types.Info
	exprs []ast.Expr
}

func (r *reach) mark(ns ...*Node) {
	for _, n := range ns {
		if n != nil && !r.live[n] {
			r.live[n] = true
			r.stack = append(r.stack, n)
		}
	}
}

// walk marks every module function an identifier under root names — an
// interface method stands for every module implementation — and walks,
// once, the initializer of every package-level var it reads.
func (r *reach) walk(info *types.Info, root ast.Node) {
	ast.Inspect(root, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					r.mark(r.g.implementations(it, obj.Name())...)
					return true
				}
			}
			r.mark(r.g.byKey[funcKey(obj)])
		case *types.Var:
			if init, ok := r.inits[obj]; ok && !r.read[obj] {
				r.read[obj] = true
				for _, e := range init.exprs {
					r.walk(init.info, e)
				}
			}
		}
		return true
	})
}

// drain closes the live set over call edges, spawns and every reference
// a live body makes.
func (r *reach) drain() {
	for len(r.stack) > 0 {
		n := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.mark(n.Calls...)
		for _, s := range n.GoSites {
			r.mark(s.Callees...)
		}
		r.walk(n.Pkg.Info, n.Body)
	}
}

// shortFuncName renders "pkg.Func" or "pkg.Type.Method" with the
// package's name rather than its path.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n, ok := deref(recv.Type()).(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
