package obs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMetricCatalogue checks DESIGN.md's metric catalogue against the
// code both ways: every series the non-test Go under internal/ and cmd/
// names through an obs.Name("…") literal is in the catalogue, and every
// catalogue series is registered somewhere — a string literal of that
// name, or one extending an obs.Name prefix literal (one ending in "_",
// completed at run time). In the catalogue, {a,b} groups expand, {k=}
// label sets are dropped, and a trailing * is a prefix.
func TestMetricCatalogue(t *testing.T) {
	root := filepath.Join("..", "..")
	catalogue := readCatalogue(t, filepath.Join(root, "DESIGN.md"))
	named, literals := scanCode(t, filepath.Join(root, "internal"), filepath.Join(root, "cmd"))

	inCatalogue := func(name string) bool {
		for _, c := range catalogue {
			prefix, isPrefix := strings.CutSuffix(c, "*")
			switch {
			case c == name, isPrefix && strings.HasPrefix(name, prefix):
				return true
			case strings.HasSuffix(name, "_") && strings.HasPrefix(c, name):
				return true // a prefix in code, completed at run time
			}
		}
		return false
	}
	for _, name := range named {
		if !inCatalogue(name) {
			t.Errorf("%s is registered but missing from DESIGN.md's metric catalogue", name)
		}
	}

	registered := func(c string) bool {
		prefix, isPrefix := strings.CutSuffix(c, "*")
		for _, l := range literals {
			if l == c || isPrefix && strings.HasPrefix(l, prefix) {
				return true
			}
		}
		for _, n := range named {
			if strings.HasSuffix(n, "_") && strings.HasPrefix(c, n) {
				return true
			}
		}
		return false
	}
	for _, c := range catalogue {
		if !registered(c) {
			t.Errorf("DESIGN.md's metric catalogue lists %s, which no code registers", c)
		}
	}
	if len(named) < 20 || len(catalogue) < 20 {
		t.Fatalf("scanned %d obs.Name literals and %d catalogue series, want at least 20 each", len(named), len(catalogue))
	}
}

var (
	backticked = regexp.MustCompile("`([^`]*)`")
	labelSet   = regexp.MustCompile(`\{[^{}]*=[^{}]*\}`)
	metricLike = regexp.MustCompile(`^[a-z][a-z0-9_]*_[a-z0-9_]*\*?$`)
)

// readCatalogue returns the series in the Series column of the table
// after the "**Metric catalogue**" line.
func readCatalogue(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(data), "**Metric catalogue**")
	if !ok {
		t.Fatal("DESIGN.md has no metric catalogue")
	}
	var out []string
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			for _, s := range expand(labelSet.ReplaceAllString(m[1], "")) {
				if metricLike.MatchString(s) {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// expand multiplies out the first {a,b} group, recursively.
func expand(s string) []string {
	i := strings.Index(s, "{")
	j := strings.Index(s, "}")
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expand(s[:i]+alt+s[j+1:])...)
	}
	return out
}

// scanCode returns the string literals that obs.Name calls start with
// (the whole name, or the literal a concatenation starts with), and every
// string literal, in the non-test Go under dirs.
func scanCode(t *testing.T, dirs ...string) (named, literals []string) {
	t.Helper()
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
						literals = append(literals, s)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Name" || len(n.Args) == 0 {
						break
					}
					if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "obs" {
						break
					}
					arg := n.Args[0]
					for { // the leftmost operand of a concatenation
						bin, ok := arg.(*ast.BinaryExpr)
						if !ok || bin.Op != token.ADD {
							break
						}
						arg = bin.X
					}
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						s, _ := strconv.Unquote(lit.Value)
						named = append(named, s)
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
	slices.Sort(named)
	return slices.Compact(named), literals
}
