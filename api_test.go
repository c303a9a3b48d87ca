package evolving_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite API.txt and UNLINKED.txt from the tree")

// TestAPIListed keeps API.txt equal to the root package's exported
// top-level names, one "kind Name" per line, sorted. A change to the
// public surface then shows up as a diff of that file. Run with -update
// to rewrite it.
func TestAPIListed(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, exportedDecls(f)...)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"

	if *updateAPI {
		if err := os.WriteFile("API.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("API.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported names differ from API.txt; rerun with -update and review its diff. Names now:\n%s", got)
	}
}

// exportedDecls returns "kind Name" for every exported top-level func,
// type, var and const in f. Methods are not top-level names.
func exportedDecls(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				out = append(out, "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, d.Tok.String()+" "+n.Name)
						}
					}
				}
			}
		}
	}
	return out
}
