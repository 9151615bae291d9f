// Command inlinecheck fails unless the compiler inlines the calls the hot
// paths are written around. Each check names a function and a callee, and
// passes when `go build -gcflags=-m` reports "inlining call to <callee>" at a
// line of that function. A lost inline shows in no test, only as a slower
// benchmark: a probe loop that calls its compare out of line instead of
// running it in place costs every Intern a call per candidate.
//
// Run it from the module root: go run ./internal/tools/inlinecheck (or make
// inline). It exits 1 and names every check that failed.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// checks lists the inlines the hot paths need: file (from the module root),
// the function in it, and the callee as -m names it.
var checks = []struct{ file, fn, callee string }{
	// The term index's probe loop confirms a resident candidate in place,
	// for both key forms (Intern, Lookup; InternBytes).
	{"internal/rdf/termindex.go", "findIn", "(*termKey[go.shape.string]).is"},
	{"internal/rdf/termindex.go", "findIn", "(*termKey[go.shape.[]uint8]).is"},
	// The query path's view of a resident term takes no call: neither a
	// SPARQL answer cell nor the dictionary's own View.
	{"internal/rdf/dict.go", "View", "(*Dict).ResidentView"},
	{"internal/sparql/eval.go", "View", "rdf.(*Dict).ResidentView"},
	// A spilled lookup asks each segment's filter before it reads the disk.
	{"internal/rdf/spill.go", "spilledSlotOf", "tripleFilter.mayHold"},
	// An index built on first read costs a read one atomic load once built.
	{"internal/rdf/graph.go", "postingFor", "cow.(*Watermark).CatchUp"},
	{"internal/pg/pg.go", "Out", "cow.(*Watermark).CatchUp"},
	{"internal/pg/pg.go", "In", "cow.(*Watermark).CatchUp"},
	{"internal/pg/pg.go", "NodeByIRI", "cow.(*Watermark).CatchUp"},
	// A live grow batch: a new literal's value-node probe and the change
	// records' sort compare take no call for the lookup and the op's rank.
	{"internal/core/data_transform.go", "literalValue", "(*Transformer).valueNode"},
	{"internal/core/delta.go", "canonicalize", "opRank"},
}

func main() {
	pkgs := map[string]bool{}
	for _, c := range checks {
		pkgs["./"+filepath.Dir(c.file)] = true
	}
	args := []string{"build", "-gcflags=-m"}
	for p := range pkgs {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "inline: go %s: %v\n%s", strings.Join(args, " "), err, out)
		os.Exit(1)
	}
	// inlined[file:line] holds the callees inlined at that line.
	inlined := map[string][]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		pos, callee, ok := strings.Cut(sc.Text(), ": inlining call to ")
		if !ok {
			continue
		}
		if parts := strings.Split(pos, ":"); len(parts) == 3 {
			at := parts[0] + ":" + parts[1]
			inlined[at] = append(inlined[at], callee)
		}
	}
	failed := 0
	for _, c := range checks {
		from, to, err := lines(c.file, c.fn)
		if err == nil {
			err = fmt.Errorf("%s is not inlined into %s (%s:%d-%d)", c.callee, c.fn, c.file, from, to)
			for l := from; l <= to && err != nil; l++ {
				if slices.Contains(inlined[c.file+":"+strconv.Itoa(l)], c.callee) {
					err = nil
				}
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "inline:", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
	fmt.Printf("inline: %d checks passed\n", len(checks))
}

// lines returns the first and last line of the one function named fn in
// file.
func lines(file, fn string) (from, to int, err error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		return 0, 0, err
	}
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == fn {
			if from != 0 {
				return 0, 0, fmt.Errorf("%s declares more than one %s", file, fn)
			}
			from, to = fset.Position(d.Pos()).Line, fset.Position(d.End()).Line
		}
	}
	if from == 0 {
		return 0, 0, fmt.Errorf("%s declares no function %s", file, fn)
	}
	return from, to, nil
}
