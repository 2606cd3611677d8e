package manrsmeter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"manrsmeter/internal/core"
)

// The documents TestDocsNameLiveCode holds to the code. CHANGES.md and
// ROADMAP.md record history and plans, so they may name code that is
// gone or not yet written; bench/README.md belongs to the benchmark.
var liveDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

const (
	designBudget       = 25600 // bytes
	experimentIndexSec = "Per-experiment index"
)

var (
	fencedBlock   = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan      = regexp.MustCompile("`([^`\n]+)`")
	testFuncName  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testFuncDecl  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	metricName    = regexp.MustCompile(`\b[a-z][a-z0-9]*(?:_[a-z0-9]+)*_(?:total|seconds)\b`)
	stringLiteral = regexp.MustCompile(`"([a-z_][a-z0-9_]*)"`)
	repoPath      = regexp.MustCompile(`^[\w.\-]+(?:/[\w.\-]+)*/?$`)
	headingRef    = regexp.MustCompile(`DESIGN\.md,?\s+"([^"]+)"`)
	goCommentWrap = regexp.MustCompile(`\n\s*//\s*`)
	nameWord      = regexp.MustCompile(`[a-z0-9_]+`)
)

// TestDocsNameLiveCode fails when the documents name code that does not
// exist: a test, benchmark or fuzz target no _test.go declares, a
// metric no non-test code registers, a repository path that is not
// there, or a DESIGN.md heading that DESIGN.md does not have (cited
// from any .go file or live document as DESIGN.md, then the quoted
// heading). It also holds DESIGN.md to its size budget and its
// per-experiment index to one row per core.Sections entry.
func TestDocsNameLiveCode(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	headings := map[string]bool{}
	for _, line := range strings.Split(design, "\n") {
		if strings.HasPrefix(line, "#") {
			headings[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	checkRefs := func(where, text string) {
		for _, m := range headingRef.FindAllStringSubmatch(text, -1) {
			if heading := strings.Join(strings.Fields(m[1]), " "); !headings[heading] {
				t.Errorf("%s: cites DESIGN.md heading %q, which does not exist", where, heading)
			}
		}
	}

	declared := map[string]bool{} // Test/Benchmark/Fuzz funcs in _test.go
	literals := map[string]bool{} // identifier-like string literals in non-test Go
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		} else {
			for _, m := range stringLiteral.FindAllSubmatch(src, -1) {
				literals[string(m[1])] = true
			}
		}
		checkRefs(path, goCommentWrap.ReplaceAllString(string(src), " "))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// registered reports whether a metric name is a literal, or a front
	// prefix literal joined to a "_suffix" literal (obsv.Front builds
	// "<prefix>_requests_total" that way).
	registered := func(name string) bool {
		if literals[name] {
			return true
		}
		for i := 1; i < len(name); i++ {
			if name[i] == '_' && literals[name[:i]] && literals[name[i:]] {
				return true
			}
		}
		return false
	}

	for _, doc := range liveDocs {
		text := readDoc(t, doc)
		checkRefs(doc, text)
		for _, m := range codeSpan.FindAllStringSubmatch(fencedBlock.ReplaceAllString(text, ""), -1) {
			span := m[1]
			for _, name := range testFuncName.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s: `%s` names %s, which no _test.go declares", doc, span, name)
				}
			}
			for _, name := range metricName.FindAllString(span, -1) {
				if !registered(name) {
					t.Errorf("%s: `%s` names metric %s, which no code registers", doc, span, name)
				}
			}
			if path, ok := docPath(span); ok {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: `%s` names a path that does not exist", doc, span)
				}
			}
		}
	}

	if n := len(design); n > designBudget {
		t.Errorf("DESIGN.md is %d B, over its %d B budget", n, designBudget)
	}
	_, index, found := strings.Cut(design, "\n## "+experimentIndexSec+"\n")
	if !found {
		t.Fatalf("DESIGN.md has no %q section", experimentIndexSec)
	}
	index, _, _ = strings.Cut(index, "\n## ")
	for _, sec := range core.Sections {
		if !strings.Contains(index, "`"+sec.Name+"`") {
			t.Errorf("DESIGN.md %q has no row for section %s", experimentIndexSec, sec.Name)
		}
	}
}

// metricCtors are the registry calls whose first argument names a
// metric family: Registry.Counter/Gauge/Summary and the Default
// registry's NewCounter/NewGauge/NewSummary.
var metricCtors = map[string]bool{
	"Counter": true, "Gauge": true, "Summary": true,
	"NewCounter": true, "NewGauge": true, "NewSummary": true,
}

// TestEveryMetricHasAReader fails, naming the family, for each metric
// family non-test code registers that no reader names: no _test.go, no
// scripts/check.sh leg, no bench/ file and no DESIGN.md line. A family
// is a string literal passed to a registry call, or a request front's
// Prefix joined to a "_suffix" literal it registers. A summary counts as
// named by its _count or _sum series too. A test that reads a family
// through a Go variable names the family in its doc comment.
func TestEveryMetricHasAReader(t *testing.T) {
	families := map[string]string{} // family -> where it is registered
	var prefixes, suffixes []string
	named := map[string]bool{} // the lower-case words readers contain
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || path == filepath.Join("bench", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		reader := strings.HasSuffix(path, "_test.go") || path == "DESIGN.md" ||
			path == filepath.Join("scripts", "check.sh") ||
			strings.HasPrefix(path, "bench"+string(filepath.Separator))
		if reader {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, w := range nameWord.FindAll(src, -1) {
				named[string(w)] = true
			}
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "Prefix" {
					if s, ok := stringLit(n.Value); ok {
						prefixes = append(prefixes, s)
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !metricCtors[sel.Sel.Name] || len(n.Args) == 0 {
					return true
				}
				if s, ok := stringLit(n.Args[0]); ok {
					families[s] = fset.Position(n.Pos()).String()
				} else if b, ok := n.Args[0].(*ast.BinaryExpr); ok && b.Op == token.ADD {
					if s, ok := stringLit(b.Y); ok && strings.HasPrefix(s, "_") {
						suffixes = append(suffixes, s)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		for _, s := range suffixes {
			families[p+s] = "request front " + p
		}
	}
	if len(families) == 0 {
		t.Fatal("found no registered metric families")
	}
	var unread []string
	for name, where := range families {
		if !named[name] && !named[name+"_count"] && !named[name+"_sum"] {
			unread = append(unread, name+" ("+where+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("metric family %s has no reader: no _test.go, scripts/check.sh, bench/ file or DESIGN.md names it", u)
	}
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// docPath reports whether a code span names a repository path and
// which: a path under a top-level directory (or under the module path
// manrsmeter/), or a top-level file with a source or document
// extension. Routes such as /v1/stats and Go names such as ihr.BuildCtx
// are not paths.
func docPath(span string) (string, bool) {
	span = strings.TrimPrefix(span, "manrsmeter/")
	if !repoPath.MatchString(span) {
		return "", false
	}
	if first, _, nested := strings.Cut(span, "/"); nested {
		st, err := os.Stat(first)
		return span, err == nil && st.IsDir()
	}
	switch filepath.Ext(span) {
	case ".go", ".md", ".json", ".sh", ".txt":
		return span, true
	}
	return "", false
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
