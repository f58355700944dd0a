package prophet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneFormPerOperation pins the failure contract of the API: every
// operation has one entry point, the form that takes a context.Context
// and returns its error. It scans the non-test Go files of the module
// (perfbench/ is a module of its own) and fails on
//
//   - an exported X declared beside an XCtx on the same receiver (or both
//     package-level) in one package: a second form that can disagree on
//     what a failure is;
//   - a literal panic(err) in the emulator and machine packages, where a
//     failure must be returned;
//   - a call to a ...Ctx function whose last result is assigned to _,
//     which turns a failure into a silent zero.
func TestOneFormPerOperation(t *testing.T) {
	panicFree := map[string]bool{}
	for _, p := range []string{"ff", "synth", "realrun", "sim", "memmodel", "baseline", "hostexec"} {
		panicFree[filepath.Join("internal", p)] = true
	}
	fset := token.NewFileSet()
	// decls[dir]["Recv.Name"] records the exported functions and methods
	// of each package directory.
	decls := map[string]map[string]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "perfbench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if decls[dir] == nil {
			decls[dir] = map[string]token.Pos{}
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				decls[dir][recvName(fn)+fn.Name.Name] = fn.Pos()
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" && len(n.Args) == 1 && panicFree[dir] {
					if arg, ok := n.Args[0].(*ast.Ident); ok && arg.Name == "err" {
						t.Errorf("%s: panic(err) in %s: return the error instead", fset.Position(n.Pos()), dir)
					}
				}
			case *ast.AssignStmt:
				last, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident)
				if !ok || last.Name != "_" || len(n.Rhs) != 1 {
					return true
				}
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && strings.HasSuffix(calleeName(call), "Ctx") {
					t.Errorf("%s: the error of %s is assigned to _", fset.Position(n.Pos()), calleeName(call))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, names := range decls {
		for name, pos := range names {
			if _, ok := names[name+"Ctx"]; ok {
				t.Errorf("%s: %s has a twin %sCtx in %s; keep only the ctx form",
					fset.Position(pos), name, name, dir)
			}
		}
	}
	if len(decls) < 10 {
		t.Fatalf("scanned only %d package directories; is the walk rooted at the module?", len(decls))
	}
}

// recvName is "T." for a method on T or *T, and "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch typ := typ.(type) {
	case *ast.Ident:
		return typ.Name + "."
	case *ast.IndexExpr: // generic receiver T[K]
		if id, ok := typ.X.(*ast.Ident); ok {
			return id.Name + "."
		}
	case *ast.IndexListExpr: // generic receiver T[K, V]
		if id, ok := typ.X.(*ast.Ident); ok {
			return id.Name + "."
		}
	}
	return "?."
}

// calleeName is the called function's name: f for f(...) and x.f(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.IndexExpr: // explicit instantiation f[T](...)
		return calleeName(&ast.CallExpr{Fun: fun.X})
	}
	return ""
}
