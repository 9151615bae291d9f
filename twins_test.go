package s3pg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// twinAllowlist names the exported wrappers under internal/ that forward to a
// longer-named entry point of their own package and must stay, each with the
// caller that pins it. Keys are "pkg.Func" or "pkg.Recv.Method".
var twinAllowlist = map[string]string{
	"ckpt.WriteFileAtomic":   "bench/layers.go:379, the CSV and DDL commits of ckpt.commit_ms",
	"core.InverseData":       "bench/batch.go:98 and the s3pg.InverseData facade",
	"core.TransformSchema":   "bench/layers.go:341 (core.fst_ms) and the s3pg.TransformSchema facade",
	"core.Transformer.Apply": "bench/layers.go:363 (core.fdt_ns_per_triple) and s3pg.Transformer users",
	"rdf.NewGraph":           "bench/layers.go:247 and :328, and the s3pg.NewGraph facade",
	"rio.LoadNTriples":       "bench/layers.go:490 and the s3pg.LoadNTriples facade",
	"rio.ParseTurtle":        "bench/layers.go:176 (shacl.load_ms) and the s3pg.ParseTurtle facade",
}

// TestNoTwinEntryPoints fails when an exported function or method under
// internal/ is only a second name for another entry point: its whole body
// returns a call to an exported function of the same package (or a method of
// the same receiver) whose name extends its own, as Eval → EvalWith does.
// Such a twin either goes, its callers moving to the survivor, or it is
// listed in twinAllowlist with the caller that needs it.
func TestNoTwinEntryPoints(t *testing.T) {
	var found []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if key := twinOf(f.Name.Name, fn); key != "" {
					found = append(found, key)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	seen := make(map[string]bool)
	for _, key := range found {
		seen[key] = true
		if _, ok := twinAllowlist[key]; !ok {
			t.Errorf("%s only forwards to a longer-named entry point: move its callers to that one, or list it in twinAllowlist with the caller that needs it", key)
		}
	}
	for key, why := range twinAllowlist {
		if why == "" {
			t.Errorf("twinAllowlist[%q] gives no reason", key)
		}
		if !seen[key] {
			t.Errorf("twinAllowlist[%q] names no twin: drop the entry", key)
		}
	}
}

// twinOf returns the key of fn when it is a twin, else "".
func twinOf(pkg string, fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if !ast.IsExported(name) || fn.Body == nil || len(fn.Body.List) != 1 {
		return ""
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return ""
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return ""
	}
	var callee string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		if fn.Recv == nil {
			callee = f.Name
		}
	case *ast.SelectorExpr:
		if recv, ok := f.X.(*ast.Ident); ok && fn.Recv != nil && len(fn.Recv.List[0].Names) == 1 &&
			recv.Name == fn.Recv.List[0].Names[0].Name {
			callee = f.Sel.Name
		}
	}
	if !ast.IsExported(callee) || len(callee) <= len(name) || !strings.HasPrefix(callee, name) {
		return ""
	}
	if recv := recvName(fn); recv != "" {
		return pkg + "." + recv + "." + name
	}
	return pkg + "." + name
}

// pipelineAllowlist names the packages, by directory, that may call the
// batch run's two stages directly — core.TransformWith and
// rio.IngestNTriples — outside _test.go files and bench/, each with the
// reason. Everything else that turns N-Triples into a property graph goes
// through internal/batch (or uses its read step), so the CLI, the job worker
// and a job's query snapshot cannot drift apart again.
var pipelineAllowlist = map[string]string{
	"internal/batch": "the batch run itself: read, validate, transform, commit",
	"internal/exp":   "the paper's timing harness, which times core.TransformWith alone (Table 4's T, §5.4)",
	".":              "the s3pg facade: TransformWith is its public name for core.TransformWith",
}

// TestNoPipelineOutsideBatch fails when a package outside pipelineAllowlist
// calls core.TransformWith or rio.IngestNTriples: a fourth load → transform
// pipeline beside `s3pg data`, the job worker and a job's snapshot. Calls
// inside internal/core and internal/rio themselves (the packages' own
// wrappers) are not selector calls and are not counted.
func TestNoPipelineOutsideBatch(t *testing.T) {
	const mod = "github.com/s3pg/s3pg/internal/"
	stages := map[string]string{mod + "core": "TransformWith", mod + "rio": "IngestNTriples"}
	used := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		names := make(map[string]string) // local import name → the stage it must not call
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if stage, ok := stages[ipath]; ok {
				local := ipath[strings.LastIndex(ipath, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				names[local] = stage
			}
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] == sel.Sel.Name {
				if _, ok := pipelineAllowlist[dir]; ok {
					used[dir] = true
				} else {
					t.Errorf("%s: %s.%s outside internal/batch: run the batch run (or its read step) instead, or list %s in pipelineAllowlist with the reason", fset.Position(sel.Pos()), x.Name, sel.Sel.Name, dir)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, why := range pipelineAllowlist {
		if why == "" {
			t.Errorf("pipelineAllowlist[%q] gives no reason", dir)
		}
		if !used[dir] {
			t.Errorf("pipelineAllowlist[%q] calls neither stage: drop the entry", dir)
		}
	}
}

// testOnlyAllowlist names the exported functions and methods under internal/
// that no non-test file references but that stay, each with the test that
// needs it. Keys are "pkg.Func" or "pkg.Recv.Method".
var testOnlyAllowlist = map[string]string{
	"rio.ReadNTriplesWith": "referenceLoad in internal/rio/load_test.go: the statement-by-statement reader TestLoadNTriplesParallelMatchesSequential, TestLoadNTriplesParallelShortInput and FuzzLoadNTriplesPaths hold every load to",
}

// testSupportPackages are the packages whose whole purpose is to serve
// tests; their exports are exempt from TestNoTestOnlyExports.
var testSupportPackages = map[string]bool{
	"internal/fixtures": true,
	"internal/qtest":    true,
	"internal/promlint": true,
}

// interfaceMethods are method names a type declares to satisfy an interface
// (of the standard library or of a caller) rather than to be called by name;
// TestNoTestOnlyExports does not ask for a named caller of them.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, // error, fmt.Stringer
	"Len": true, "Less": true, "Swap": true, // sort.Interface
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true, // slog.Handler
	"ServeHTTP": true, "MarshalJSON": true,
}

// TestNoTestOnlyExports fails when an exported function or method under
// internal/ is referenced by no non-test file of the module (bench/ and
// examples/ included): a name only tests call belongs in the tests. The scan
// is by name — a package function counts as referenced by pkg.Name from
// another package or by Name inside its own, a method by any .Name selector —
// so it can miss a test-only method that shares its name with a used one, but
// never flags a used name.
func TestNoTestOnlyExports(t *testing.T) {
	const mod = "github.com/s3pg/s3pg/"
	decls := make(map[string]string) // key → the reference that keeps it
	refs := make(map[string]bool)    // "dir.Name" for functions, ".Name" for methods
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := make(map[string]string) // local name → module-relative dir
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(ipath, mod) {
				continue
			}
			local := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = strings.TrimPrefix(ipath, mod)
		}
		declared := make(map[*ast.Ident]bool)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || testSupportPackages[dir] || !ast.IsExported(fn.Name.Name) {
				continue
			}
			if fn.Recv == nil {
				decls[f.Name.Name+"."+fn.Name.Name] = dir + "." + fn.Name.Name
			} else if !interfaceMethods[fn.Name.Name] {
				decls[f.Name.Name+"."+recvName(fn)+"."+fn.Name.Name] = "." + fn.Name.Name
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					refs[imports[id.Name]+"."+x.Sel.Name] = true
					return false
				}
				refs["."+x.Sel.Name] = true
			case *ast.Ident:
				if !declared[x] {
					refs[dir+"."+x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for key, ref := range decls {
		if !refs[ref] {
			found = append(found, key)
		}
	}
	sort.Strings(found)
	for _, key := range found {
		if _, ok := testOnlyAllowlist[key]; !ok {
			t.Errorf("%s has no caller outside _test.go files: move it into its package's tests, or list it in testOnlyAllowlist with the test that needs it", key)
		}
	}
	for key, why := range testOnlyAllowlist {
		if why == "" {
			t.Errorf("testOnlyAllowlist[%q] gives no reason", key)
		}
		if !slices.Contains(found, key) {
			t.Errorf("testOnlyAllowlist[%q] names no test-only export: drop the entry", key)
		}
	}
}

// recvName returns the receiver type name of method fn, "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
