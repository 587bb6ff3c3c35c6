package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
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
