package epajsrm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// codeSpan matches one inline code span; fenced blocks are removed first.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// codeName matches pkg.Name or pkg.Type.Member inside a span. Name must
	// be exported: lower-case pairs such as `journal.appends` are metric
	// names, not code.
	codeName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.\w+)?)`)
)

// declared returns what the package in dir declares, test files included
// (the docs cite core.TestTracingDoesNotPerturbRun): top-level names as
// "Name", and the methods and fields of a type as "Type.Member".
func declared(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = typeName(d.Recv.List[0].Type) + "." + name
				}
				names[name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						for _, fld := range members(s.Type) {
							for _, n := range fld.Names {
								names[s.Name.Name+"."+n.Name] = true
							}
							if len(fld.Names) == 0 { // embedded
								names[s.Name.Name+"."+typeName(fld.Type)] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}

// members lists a struct's fields or an interface's methods.
func members(e ast.Expr) []*ast.Field {
	switch x := e.(type) {
	case *ast.StructType:
		return x.Fields.List
	case *ast.InterfaceType:
		return x.Methods.List
	}
	return nil
}

// typeName names the type of a receiver or embedded field: T, *T, pkg.T.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// stripFences drops fenced code blocks, whose backticks are not spans.
func stripFences(doc string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = !in
		} else if !in {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestDocCodeNamesExist fails when README, DESIGN or EXPERIMENTS names a
// backticked pkg.Name or pkg.Type.Member, for a package under internal/,
// that the package does not declare: the docs may claim only code that
// exists.
func TestDocCodeNamesExist(t *testing.T) {
	pkgs := map[string]map[string]bool{}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		reported := map[string]bool{}
		for _, span := range codeSpan.FindAllString(stripFences(string(raw)), -1) {
			for _, m := range codeName.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
				pkg, name := m[1], m[2]
				dir := filepath.Join("internal", pkg)
				if _, err := os.Stat(dir); err != nil {
					continue
				}
				if pkgs[pkg] == nil {
					pkgs[pkg] = declared(t, dir)
				}
				checked++
				if !pkgs[pkg][name] && !reported[pkg+"."+name] {
					reported[pkg+"."+name] = true
					t.Errorf("%s names `%s.%s`, which %s does not declare", doc, pkg, name, dir)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no code names found in the documents; the pattern is broken")
	}
}
