package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc guards the allocation budget of the solver and kernel hot paths
// (a warm query allocates only its result, pinned by
// TestAlgorithm2FrozenWarmAllocs):
// in files annotated with a //chordal:hotpath comment it flags the three
// ways allocations quietly reappear in review — fmt string formatting,
// append growth on a slice declared with zero capacity in the same
// function, and implicit boxing of non-pointer values into interfaces.
// Error construction (fmt.Errorf, arguments to error-typed parameters) is
// exempt: error paths are cold by contract. A finding that is genuinely
// cold can be suppressed in place with //chordal:allow hotalloc.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "in //chordal:hotpath files, flag fmt formatting, zero-capacity append growth\n" +
		"and interface boxing — allocation re-introductions the benches would catch late",
	Run: runHotAlloc,
}

// fmtFormatters are the fmt functions that allocate to build strings.
// Errorf is deliberately absent: constructing an error is the cold path.
var fmtFormatters = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Fprintf": true, "fmt.Fprint": true, "fmt.Fprintln": true,
	"fmt.Printf": true, "fmt.Print": true, "fmt.Println": true,
	"fmt.Appendf": true, "fmt.Append": true, "fmt.Appendln": true,
}

func runHotAlloc(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		if !isHotpathFile(f) {
			continue
		}
		funcScopes(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
			checkHotScope(pass, body)
		})
	}
	return nil, nil
}

// checkHotScope applies the three allocation checks to one function body.
func checkHotScope(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	zeroCap := zeroCapLocals(info, body)
	walkScope(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			name := fn.FullName()
			if fmtFormatters[name] {
				pass.Reportf(call.Pos(), "%s allocates on a hot path; format off the hot path or build into a pooled buffer", name)
				return true
			}
			if strings.HasPrefix(name, "fmt.") {
				// fmt.Errorf etc.: cold error path, and its ...any args
				// are exempt from the boxing check below.
				return true
			}
		}
		if isBuiltin(info, call, "append") && len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && zeroCap[objectOf(info, id)] {
				pass.Reportf(call.Pos(), "append grows %s from zero capacity on a hot path; pre-size it with make(..., 0, n) or reuse a pooled buffer", id.Name)
			}
			return true
		}
		checkBoxing(pass, call)
		return true
	})
}

// zeroCapLocals collects local slice variables declared with no capacity:
// `var s []T`, `s := []T{}`, `s := make([]T, 0)`.
func zeroCapLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	zero := make(map[types.Object]bool)
	record := func(id *ast.Ident) {
		if obj := info.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				zero[obj] = true
			}
		}
	}
	walkScope(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) > 0 {
					continue
				}
				for _, id := range vs.Names {
					record(id)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isZeroCapSliceExpr(info, rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && info.Defs[id] != nil {
					record(id)
				}
			}
		}
		return true
	})
	return zero
}

// isZeroCapSliceExpr reports whether e is an empty-capacity slice
// expression: []T{} or make([]T, 0) without an explicit capacity.
func isZeroCapSliceExpr(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		_, isSlice := info.Types[x].Type.Underlying().(*types.Slice)
		return isSlice && len(x.Elts) == 0
	case *ast.CallExpr:
		if !isBuiltin(info, x, "make") || len(x.Args) != 2 {
			return false
		}
		_, isSlice := info.Types[x].Type.Underlying().(*types.Slice)
		if !isSlice {
			return false
		}
		tv := info.Types[x.Args[1]]
		return tv.Value != nil && tv.Value.String() == "0"
	}
	return false
}

// checkBoxing flags arguments whose concrete non-pointer-shaped values
// are implicitly converted to interface parameters — each such conversion
// heap-allocates. Error-typed parameters are exempt (cold path).
func checkBoxing(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversions: T(x) to an interface type.
		_, isIface := tv.Type.Underlying().(*types.Interface)
		if isIface && !isErrorType(tv.Type) && len(call.Args) == 1 && boxes(info.Types[call.Args[0]].Type) {
			pass.Reportf(call.Pos(), "conversion to interface %s boxes its operand on a hot path", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)))
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				// f(xs...): the slice is passed through, nothing boxes.
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		iface, isIface := pt.Underlying().(*types.Interface)
		if !isIface || iface == nil || isErrorType(pt) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || !boxes(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "passing %s to interface parameter boxes it on a hot path",
			types.TypeString(at, types.RelativeTo(pass.Pkg)))
	}
}

// boxes reports whether converting a value of type t to an interface
// heap-allocates: true for non-pointer-shaped concrete types (numbers,
// strings, structs, slices, arrays), false for pointers, maps, channels,
// functions, interfaces and nil.
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UntypedNil
	case *types.Struct, *types.Slice, *types.Array:
		return true
	default:
		return false
	}
}
