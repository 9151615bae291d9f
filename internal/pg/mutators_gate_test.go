package pg

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordsAreWrittenOnlyThroughTheStore is the gate behind copy-on-write
// having a single enforcement point (Store.mutNode / mutEdge): no non-test
// file outside this package may assign to — or delete from — a Props map or
// assign a Labels slice. The check is syntactic, so the few writes to
// same-named fields of other types are listed here, exactly.
func TestRecordsAreWrittenOnlyThroughTheStore(t *testing.T) {
	allowed := map[string]bool{
		// cypher.NodePattern / RelPattern, filled by the parser.
		"internal/cypher/parser.go: np.Labels":     true,
		"internal/cypher/parser.go: np.Props":      true,
		"internal/cypher/parser.go: np.Props[key]": true,
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	show := func(e ast.Expr) string {
		var b strings.Builder
		printer.Fprint(&b, fset, e)
		return b.String()
	}
	// recordField reports whether e is x.Props, x.Labels or x.Props[k].
	recordField := func(e ast.Expr) bool {
		if ix, ok := e.(*ast.IndexExpr); ok {
			sel, ok := ix.X.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Props"
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Props" || sel.Sel.Name == "Labels")
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root || rel == "internal/pg" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		report := func(e ast.Expr) {
			if key := rel + ": " + show(e); !allowed[key] {
				t.Errorf("%s: writes %s directly; use a pg.Store mutator (SetProp, AppendProp, AppendEdgeProp, AddLabel)",
					fset.Position(e.Pos()), show(e))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range x.Lhs {
					if recordField(lhs) {
						report(lhs)
					}
				}
			case *ast.IncDecStmt:
				if recordField(x.X) {
					report(x.X)
				}
			case *ast.CallExpr:
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) == 2 && recordField(x.Args[0]) {
					report(x.Args[0])
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
