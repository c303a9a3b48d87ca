package evolving_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestLinkedOrListed keeps UNLINKED.txt equal to the non-test functions
// of this module that no program links. The programs are every command
// under cmd/, every walkthrough under examples/ and the bench/egmark
// harness; each is built with inlining off (so every callee stays a
// symbol) and with the linker's dependency dump, whose function symbols
// are the code that program can run. A function no program links and
// UNLINKED.txt does not name fails the test: delete it, or list it and
// say in DESIGN.md §2 why it stays. Run with -update to rewrite the file.
//
// The linker drops a method reached only through an interface or
// reflection by its own rules, so methods with the name and signature
// of fmt.Stringer, error, json.(Un)Marshaler, encoding.Text(Un)Marshaler
// or sort.Interface are not counted.
func TestLinkedOrListed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program; skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	linked := map[string]bool{}
	for _, dir := range []string{".", "bench/egmark"} {
		pkgs := []string{"./cmd/...", "./examples/..."}
		if dir != "." {
			pkgs = []string{"./..."}
		}
		args := append([]string{"build", "-C", dir, "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", t.TempDir() + "/"}, pkgs...)
		cmd := exec.Command(gobin, args...)
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
		var dump bytes.Buffer
		cmd.Stderr = &dump
		if err := cmd.Run(); err != nil {
			t.Fatalf("go %s: %v\n%.2000s", strings.Join(args, " "), err, dump.String())
		}
		linkedFuncs(dump.Bytes(), linked)
	}

	var unlinked []string
	for _, name := range declaredFuncs(t) {
		if !linked[name] {
			unlinked = append(unlinked, name)
		}
	}
	got := strings.Join(unlinked, "\n") + "\n"

	if *updateAPI {
		if err := os.WriteFile("UNLINKED.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("UNLINKED.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("functions no program links differ from UNLINKED.txt; delete the code, or rerun with -update and review the diff.\nnewly unlinked:%s\nlinked again or gone:%s",
			listDiff(unlinked, lines(want)), listDiff(lines(want), unlinked))
	}
}

var (
	// auxSuffix marks the data the linker attaches to a function, which
	// it may name after any function with the same contents.
	auxSuffix = regexp.MustCompile(`\.(arginfo\d+|argliveinfo|stkobj|opendefer|wrapinfo)$`)
	// closure cuts a closure or go/defer wrapper down to the function
	// that declares it.
	closure = regexp.MustCompile(`\.(func|gowrap|deferwrap)\d+(\.\d+)*$`)
)

// linkedFuncs adds to set every function symbol of this module that
// appears in a linker dependency dump ("from -> to" lines), with
// generic instantiations and closures folded into their declaration.
func linkedFuncs(dump []byte, set map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			if !strings.HasPrefix(sym, "repro") || auxSuffix.MatchString(sym) {
				continue
			}
			sym = strings.TrimSuffix(stripTypeArgs(sym), "-fm")
			set[closure.ReplaceAllString(sym, "")] = true
		}
	}
}

// stripTypeArgs drops every bracketed type-argument list from sym.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs returns, sorted, the linker names (path.F, path.T.M,
// path.(*T).M) of the functions declared in the non-test files of this
// module's library packages.
func declaredFuncs(t *testing.T) []string {
	fset := token.NewFileSet()
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
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
		if f.Name.Name == "main" {
			return nil
		}
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || dispatchedByInterface(fn) {
				continue
			}
			names = append(names, pkg+"."+recvPrefix(fn)+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// recvPrefix is "T." or "(*T)." for a method, "" for a function.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// interfaceMethods are the methods (name and signature, as printed by
// signature) the standard library calls through an interface.
var interfaceMethods = map[string]bool{
	"String() string":               true,
	"Error() string":                true,
	"MarshalJSON() ([]byte, error)": true,
	"UnmarshalJSON([]byte) error":   true,
	"MarshalText() ([]byte, error)": true,
	"UnmarshalText([]byte) error":   true,
	"Len() int":                     true,
	"Less(int, int) bool":           true,
	"Swap(int, int)":                true,
}

func dispatchedByInterface(fn *ast.FuncDecl) bool {
	return fn.Recv != nil && interfaceMethods[fn.Name.Name+signature(fn.Type)]
}

// signature prints a method type as "(params) results" with parameter
// names dropped.
func signature(ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		if fl == nil {
			return nil
		}
		var out []string
		for _, f := range fl.List {
			var b bytes.Buffer
			if err := printer.Fprint(&b, token.NewFileSet(), f.Type); err != nil {
				return []string{"?"}
			}
			n := len(f.Names)
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				out = append(out, b.String())
			}
		}
		return out
	}
	sig := "(" + strings.Join(list(ft.Params), ", ") + ")"
	switch res := list(ft.Results); len(res) {
	case 0:
	case 1:
		sig += " " + res[0]
	default:
		sig += " (" + strings.Join(res, ", ") + ")"
	}
	return sig
}

func lines(b []byte) []string {
	return strings.Fields(string(b))
}

// listDiff returns the entries of a missing from b, one per line.
func listDiff(a, b []string) string {
	in := map[string]bool{}
	for _, s := range b {
		in[s] = true
	}
	var out strings.Builder
	for _, s := range a {
		if !in[s] {
			out.WriteString("\n\t" + s)
		}
	}
	return out.String()
}
