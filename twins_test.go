package s3pg_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"rio.ReadNTriplesWith":  "referenceLoad in internal/rio/load_test.go: the statement-by-statement reader TestLoadNTriplesParallelMatchesSequential, TestLoadNTriplesParallelShortInput and FuzzLoadNTriplesPaths hold every load to",
	"pg.Store.Equal":        "TestFacadeNTriplesAndCSV in s3pg_test.go and the pg model, clone, resequence and CSV tests: the order-sensitive store equality they hold round trips to",
	"pg.Store.Labels":       "twins.compare in internal/core/delta_inplace_test.go and the pg model and resequence tests: the node label set two stores must share",
	"pgschema.Schema.Equal": "TestFacadePipeline in s3pg_test.go, TestSchemaDDLRoundTripBothModes in internal/core/core_test.go and the pgschema tests: the schema equality DDL round trips are held to",
	"serve.Response.Rows":   "TestConcurrentQueriesByteEqualNoReload in internal/server/load_test.go and the serve tests: the materialized answer the wire JSON is checked against",
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
// internal/ is used by no non-test file of the module (bench/ and examples/
// included): a name only tests call belongs in the tests. Uses are resolved
// by type, every package type-checked once from source (go/importer's source
// mode for the standard library), so a test-only method that shares its name
// with a used one is found. A method also counts as used when the module
// calls an interface method of the same name that its type implements, or
// when interfaceMethods names it.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	checked := make(map[string]*types.Package) // by import path
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		bp, err := build.Default.ImportDir(moduleDir(path), 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		return pkg, nil
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		ipath := modulePath
		if path != "." {
			ipath += "/" + filepath.ToSlash(path)
		}
		if _, err := check(ipath); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := make(map[*types.Func]bool)
	var called []*types.Func // interface methods the module calls
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
		}
	}
	reached := func(m *types.Func, typ types.Type) bool {
		for _, fn := range called {
			iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if fn.Name() == m.Name() && types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
		return false
	}
	var found []string
	for path, pkg := range checked {
		if dir := moduleDir(path); !strings.HasPrefix(dir, "internal/") || testSupportPackages[dir] {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					found = append(found, pkg.Name()+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !interfaceMethods[m.Name()] && !reached(m, named) {
						found = append(found, pkg.Name()+"."+name+"."+m.Name())
					}
				}
			}
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

// modulePath is the module path; moduleDir maps one of its import paths to the
// package's directory, relative to the module root.
const modulePath = "github.com/s3pg/s3pg"

func moduleDir(path string) string {
	if path == modulePath {
		return "."
	}
	return strings.TrimPrefix(path, modulePath+"/")
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
