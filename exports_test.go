package pjds

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// marshalReason covers the JSON marshal methods: encoding/json calls
// them through the json.Marshaler and json.Unmarshaler interfaces, so
// no code names them.
const marshalReason = "implements a json.Marshaler or json.Unmarshaler method"

// testOnlyExports names the exported internal functions and methods
// that no non-test code calls, each with the reason it stays. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg being the directory under
// internal/.
var testOnlyExports = map[string]string{
	"matgen.Random":                  "fixture shared by test files in 7 packages; moving it into test files would not reduce anything",
	"matgen.Stencil3D":               "fixture shared by test files in 2 packages",
	"experiments.ScaleFromEnv":       "scale knob read by the root and experiments tests and the gpu benchmarks",
	"experiments.Histogram.Mean":     "read by the root and experiments tests",
	"solver.SetVectorKernels":        "test hook that swaps in the Go loops for CG's SIMD passes",
	"gpu.TeslaC1060":                 "the only no-L2 device; the gpu and tuner tests use it",
	"matrix.Perm.Valid":              "permutation check used by 7 test files",
	"core.SELL.MulVecPermuted":       "the reference the host pJDS kernel test compares against",
	"telemetry.Bucket.MarshalJSON":   marshalReason,
	"telemetry.Bucket.UnmarshalJSON": marshalReason,
	"telemetry.Series.MarshalJSON":   marshalReason,
	"telemetry.Series.UnmarshalJSON": marshalReason,
	"health.Status.MarshalJSON":      marshalReason,
	"health.Status.UnmarshalJSON":    marshalReason,
}

// exportedDecl is one exported top-level function or method under
// internal/.
type exportedDecl struct {
	key, name string
	pos, end  token.Pos
}

// TestNoTestOnlyExports fails on any exported internal function or
// method whose name no non-test file in the repository (root facade,
// cmd/, examples/, internal/ and the bench/ module) uses outside its
// own declaration, unless testOnlyExports names it with a reason. The
// check is by name only: a dead function whose name collides with
// another identifier goes unseen, but a function that non-test code
// calls is never flagged.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	uses := map[string][]token.Pos{} // one FileSet: positions are unique across files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if key, ok := internalKey(path, fd); ok {
				decls = append(decls, exportedDecl{key, fd.Name.Name, fd.Pos(), fd.End()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported internal declarations found; the test must run from the repository root")
	}

	unused := map[string]bool{} // declared key -> no caller
	for _, d := range decls {
		called := calledElsewhere(d, uses[d.name])
		unused[d.key] = !called
		if _, ok := testOnlyExports[d.key]; !ok && !called {
			t.Errorf("%s: no non-test code calls it; delete it with its tests, or give it a caller", d.key)
		}
	}
	for k := range testOnlyExports {
		if !unused[k] {
			t.Errorf("allowlist entry %s names no uncalled exported internal function; drop the entry", k)
		}
	}
}

// internalKey returns the allowlist key of fd when it is an exported
// top-level function or method of a package under internal/.
func internalKey(path string, fd *ast.FuncDecl) (string, bool) {
	dir := filepath.ToSlash(filepath.Dir(path))
	pkg, ok := strings.CutPrefix(dir, "internal/")
	if !ok || !fd.Name.IsExported() {
		return "", false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name, true
	}
	return pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name, true
}

// recvName strips pointers and type parameters from a receiver type.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// calledElsewhere reports whether any use of d's name lies outside d's
// own declaration.
func calledElsewhere(d exportedDecl, uses []token.Pos) bool {
	for _, p := range uses {
		if p < d.pos || p >= d.end {
			return true
		}
	}
	return false
}
