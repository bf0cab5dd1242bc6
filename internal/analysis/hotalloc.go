package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc flags allocating constructs inside functions annotated
// //prvm:hotpath.
//
// The placement fast path holds one candidate evaluation (a warm
// ScoreOn, a memo read) at ~24ns and 0 allocs/op on a 2-vCPU Xeon; a
// single allocation in ScoreOn or a CSR kernel is a 2-10x regression
// plus GC pressure that the serve daemon will pay on every request. The benchmark catches a regression after
// the fact; the annotation plus this analyzer catches it at lint time
// and marks the contract in the source, where the next editor sees it.
//
// In an annotated function the analyzer flags:
//
//   - the allocating builtins make, new, and append;
//   - slice, map, and pointer (&T{...}) composite literals;
//   - string concatenation (+ / += on strings builds a new string);
//   - string <-> []byte / []rune conversions (they copy);
//   - function literals (closures capture to the heap);
//   - arguments converted to interface types at a call site
//     (interface boxing escapes the value).
//
// Deliberate allocations — a result slice documented "allocate only
// the returned value", an append into caller scratch via dst[:0] —
// carry //prvmlint:allow hotalloc with the reason. The annotation is
// advisory for the compiler but binding for the linter: annotate only
// functions the bench suite holds at 0 allocs/op.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "//prvm:hotpath functions must not allocate: no make/new/append, literals, string concat, boxing, or closures",
	Run:  runHotalloc,
}

// hotpathDirective marks a function as allocation-free. Written with
// no space after // so it reads as a directive, not prose.
const hotpathDirective = "prvm:hotpath"

func runHotalloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotallocBody(pass, fd)
		}
	}
	return nil
}

func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//"+hotpathDirective) {
			return true
		}
	}
	return false
}

func checkHotallocBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(e.Pos(),
				"closure in hotpath function %s allocates (captured variables escape)", name)
			return false
		case *ast.CompositeLit:
			switch types.Unalias(exprType(pass, e)).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(e.Pos(), "slice literal in hotpath function %s allocates", name)
			case *types.Map:
				pass.Reportf(e.Pos(), "map literal in hotpath function %s allocates", name)
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.Reportf(e.Pos(), "&composite literal in hotpath function %s allocates", name)
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(exprType(pass, e.X)) {
				pass.Reportf(e.Pos(), "string concatenation in hotpath function %s allocates", name)
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(exprType(pass, e.Lhs[0])) {
				pass.Reportf(e.Pos(), "string concatenation in hotpath function %s allocates", name)
			}
		case *ast.CallExpr:
			checkHotallocCall(pass, e, name)
		}
		return true
	})
}

func checkHotallocCall(pass *Pass, call *ast.CallExpr, name string) {
	for _, b := range []string{"make", "new", "append"} {
		if isBuiltinCall(pass, call, b) {
			pass.Reportf(call.Pos(), "%s in hotpath function %s allocates", b, name)
			return
		}
	}
	if isStringByteConversion(pass, call) {
		pass.Reportf(call.Pos(), "string/[]byte conversion in hotpath function %s copies", name)
		return
	}
	checkHotallocBoxing(pass, call, name)
}

// isStringByteConversion reports a T(x) conversion between string and
// []byte or []rune — both directions copy.
func isStringByteConversion(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	dst, src := tv.Type, exprType(pass, call.Args[0])
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

// checkHotallocBoxing flags arguments whose parameter type is an
// interface while the argument's type is concrete — the conversion
// boxes the value onto the heap.
func checkHotallocBoxing(pass *Pass, call *ast.CallExpr, name string) {
	sig, ok := types.Unalias(exprType(pass, call.Fun)).Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis != token.NoPos)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := exprType(pass, arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(pass, arg) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"argument boxed into interface %s in hotpath function %s allocates", pt.String(), name)
	}
}

// paramTypeAt returns the declared type of argument i, unwrapping the
// variadic element type; nil when the index is out of range (builtin
// or erroneous call).
func paramTypeAt(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if ellipsis {
			return nil // passing the slice through, no per-element boxing
		}
		if s, ok := last.Underlying().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
