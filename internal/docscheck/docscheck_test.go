package docscheck

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above ", dir)
		}
		dir = parent
	}
}

// mdLink matches inline markdown links [text](target); images too.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks checks every relative link in the repository's markdown
// files (README, ROADMAP, docs/...) points at a file or directory that
// exists, so documentation can't silently rot as the tree moves.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	var files []string
	for _, top := range []string{"README.md", "ROADMAP.md", "PAPER.md", "CHANGES.md"} {
		if _, err := os.Stat(filepath.Join(root, top)); err == nil {
			files = append(files, filepath.Join(root, top))
		}
	}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 3 {
		t.Fatalf("only %d markdown files found — checker miswired?", len(files))
	}

	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for ln, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if u, err := url.Parse(target); err == nil && (u.Scheme != "" || strings.HasPrefix(target, "#")) {
					continue // external link or intra-page anchor
				}
				target = strings.SplitN(target, "#", 2)[0]
				resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s:%d: broken link %q (%v)", f, ln+1, m[1], err)
				}
			}
		}
	}
}

// TestPackageComments fails when any package in the module lacks a package
// comment — the godoc front door every internal package is required to
// have (ISSUE 4; staticcheck's ST1000 enforces the same rule in CI).
func TestPackageComments(t *testing.T) {
	root := repoRoot(t)
	// pkgDocs maps package directory -> whether any file carries a package
	// comment.
	pkgDocs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != root || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if file.Doc != nil && strings.TrimSpace(file.Doc.Text()) != "" {
			pkgDocs[dir] = true
		} else if _, seen := pkgDocs[dir]; !seen {
			pkgDocs[dir] = false
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgDocs) < 20 {
		t.Fatalf("only %d package directories found — checker miswired?", len(pkgDocs))
	}
	for dir, ok := range pkgDocs {
		if !ok {
			t.Errorf("package %s has no package comment on any file", dir)
		}
	}
}

// TestNoEnvironmentKnobs fails when production code of the root module
// (any non-test .go file outside nested modules) reads the environment
// through os.Getenv or os.LookupEnv. Behavior is selected by options the
// API and the command-line flags expose, never by a hidden variable, so
// every path the tests pin is the path that runs.
func TestNoEnvironmentKnobs(t *testing.T) {
	root := repoRoot(t)
	files := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == root {
				return nil
			}
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module, not part of this one
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		osName := ""
		for _, imp := range file.Imports {
			if imp.Path.Value == `"os"` {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName &&
				(sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv") {
				t.Errorf("%s: production code reads the environment via os.%s",
					fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("only %d production files found — checker miswired?", files)
	}
}

// optionAllowlist names the exported Options fields that stay although no
// production file outside their package sets them. A key is
// "pkg.Type.Field", or "pkg.Type" to allow every field of one struct.
var optionAllowlist = map[string]string{
	"multilevel.Options.DisableRefine":    "the section 2.3 no-refinement row of bench_test.go sets it",
	"percolation.Options.Seeds":           "tests place the liquids with it",
	"experiments.VarianceOptions.Seeds":   "the step-capped Table 1 statistics build on it",
	"experiments.VarianceOptions.Methods": "the step-capped Table 1 statistics build on it",
	"experiments.Table1Options.MetaSteps": "the step-capped Table 1 statistics build on it",
	"eig.MinresOptions":                   "its only caller is RQI, in the same package",
}

// TestOptionFieldsAreSet fails when an exported field of an internal
// *Options struct is set by no production file outside its own package,
// either as a composite-literal key or by assignment. Such a field is a
// knob nothing turns: it belongs in a constant, with its one code path.
// The root module is type-checked from source, so fields are matched by
// their declaration, not by name.
func TestOptionFieldsAreSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	root := repoRoot(t)
	dirs := map[string][]string{} // package dir -> non-test .go files
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // a nested module, not part of this one
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	declared := map[string]string{} // field position -> "pkg.Type.Field"
	setFrom := map[string]bool{}    // field position + "@" + setter dir
	for dir, paths := range dirs {
		var files []*ast.File
		for _, p := range paths {
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		rel, _ := filepath.Rel(root, dir)
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || !strings.HasSuffix(name, "Options") {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						declared[fset.Position(f.Pos()).String()] = pkg.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
		// markSet records that dir sets the field id resolves to.
		markSet := func(id *ast.Ident) {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				setFrom[fset.Position(v.Pos()).String()+"@"+dir] = true
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						markSet(id)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							markSet(sel.Sel)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						markSet(sel.Sel)
					}
				}
				return true
			})
		}
	}
	if len(declared) < 10 {
		t.Fatalf("only %d Options fields found — checker miswired?", len(declared))
	}

	declDir := func(pos string) string {
		return filepath.Dir(strings.SplitN(pos, ":", 2)[0])
	}
	var unset []string
	for pos, field := range declared {
		parts := strings.Split(field, ".")
		if _, ok := optionAllowlist[field]; ok {
			continue
		}
		if _, ok := optionAllowlist[parts[0]+"."+parts[1]]; ok {
			continue
		}
		set := false
		for dir := range dirs {
			if dir != declDir(pos) && setFrom[pos+"@"+dir] {
				set = true
				break
			}
		}
		if !set {
			unset = append(unset, field)
		}
	}
	sort.Strings(unset)
	for _, field := range unset {
		t.Errorf("%s: no production file outside its package sets it; make it a constant", field)
	}
	for key := range optionAllowlist {
		found := false
		for _, field := range declared {
			if field == key || strings.HasPrefix(field, key+".") {
				found = true
			}
		}
		if !found {
			t.Errorf("allowlist entry %s names no Options field", key)
		}
	}
}
