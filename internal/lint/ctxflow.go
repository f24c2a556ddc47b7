package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the PR 2 invariant: request-path code runs under the
// caller's context, end to end. A context.Background()/context.TODO()
// inside a serving-path package silently detaches work from the request
// that started it — cancellation, deadlines and query-id propagation all
// stop at the break.
//
// Two shapes are allowed without a directive:
//
//   - The documented convenience wrapper: a function with no Context
//     parameter whose entire body is a single return into its *Context /
//     *Ctx variant (Query → QueryContext and friends). These exist for
//     callers that genuinely have no context, and the single-return shape
//     keeps them trivially auditable.
//
//   - Nothing else. Deliberately detached work (the relay's bounded
//     best-effort remote close, the post-request completion log) must
//     carry a //lint:ignore ctxflow <reason> directive, so every
//     detachment is explained at the site that does it.
//
// It also rejects shadowing: inside a function that already receives a
// ctx parameter, defining a *new* ctx that is not derived from the
// parameter hides the caller's cancellation from everything below.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "request-path code must run under the caller's context: no context.Background/TODO outside documented convenience wrappers, no shadowed ctx",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if !isRequestPath(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					ctxFlowFunc(pass, d)
				}
			case *ast.GenDecl:
				// Package-level var initializers never have a caller
				// context to inherit, but a Background() captured in one
				// outlives every request; flag it like any other.
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && isBackgroundOrTODO(pass.Info, call) {
						pass.Reportf(call.Pos(), "context.%s in package-level initializer of a request-path package",
							calleeObj(pass.Info, call).Name())
					}
					return true
				})
			}
		}
	}
	return nil
}

// isBackgroundOrTODO matches context.Background() / context.TODO().
func isBackgroundOrTODO(info *types.Info, call *ast.CallExpr) bool {
	return isPkgFunc(info, call, "context", "Background", "TODO")
}

// isContextType matches context.Context (the interface itself).
func isContextType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

// ctxParam returns the function's context.Context parameter object, or
// nil.
func ctxParam(info *types.Info, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

func ctxFlowFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	param := ctxParam(info, fd)

	// The wrapper exemption: no ctx parameter, documented, and the body
	// is exactly `return x.FooContext(context.Background(), ...)`.
	exempt := map[*ast.CallExpr]bool{}
	if param == nil && fd.Doc != nil && len(fd.Body.List) == 1 {
		if ret, ok := fd.Body.List[0].(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok {
					continue
				}
				name := calleeName(call)
				if !strings.HasSuffix(name, "Context") && !strings.HasSuffix(name, "Ctx") {
					continue
				}
				for _, arg := range call.Args {
					if bg, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isBackgroundOrTODO(info, bg) {
						exempt[bg] = true
					}
				}
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBackgroundOrTODO(info, n) && !exempt[n] {
				what := calleeObj(info, n).Name()
				if param != nil {
					pass.Reportf(n.Pos(), "context.%s inside a function that already receives %s — pass the caller's context down", what, param.Name())
				} else {
					pass.Reportf(n.Pos(), "context.%s in request-path code detaches this work from the request; thread a ctx parameter, use the single-return *Context wrapper shape, or add //lint:ignore ctxflow <reason>", what)
				}
			}
		case *ast.AssignStmt:
			if param != nil {
				ctxFlowShadow(pass, n, param)
			}
		}
		return true
	})
}

// ctxFlowShadow flags `ctx := <expr>` definitions that hide the ctx
// parameter behind a context not derived from it.
func ctxFlowShadow(pass *Pass, as *ast.AssignStmt, param types.Object) {
	if as.Tok.String() != ":=" {
		return
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != param.Name() {
			continue
		}
		obj := pass.Info.Defs[id]
		if obj == nil || obj == param || !isContextType(obj.Type()) {
			continue
		}
		derived := false
		for _, rhs := range as.Rhs {
			if usesObject(pass.Info, rhs, param) {
				derived = true
			}
		}
		if !derived {
			pass.Reportf(id.Pos(), "%s := shadows the %s parameter with an unrelated context — derive it from the parameter or name it differently", id.Name, param.Name())
		}
	}
}

// calleeName is the bare name of the function being called, for suffix
// matching ("QueryContext", "runOnSourceStreamCtx").
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
