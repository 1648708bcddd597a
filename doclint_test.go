package tdp

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

// docLintFiles returns the documents that tell a reader which calls to
// make: README, DESIGN and the verify notes in the repository's hidden
// skills directory. Every method or field they name in backticks as T.M
// or (*T).M, for T a type declared in package tdp, internal/attrspace,
// internal/telemetry or internal/wire, must exist, and so must every
// name they qualify with one of those packages and every repository
// path they name in backticks; a rename or deletion that leaves a
// sentence behind fails here until the sentence follows it.
func docLintFiles(t *testing.T) []string {
	notes, err := filepath.Glob(".*/skills/verify/SKILL.md")
	if err != nil || len(notes) != 1 {
		t.Fatalf("verify notes: %v, %v", notes, err)
	}
	return append([]string{"README.md", "DESIGN.md"}, notes...)
}

// docLintPackages maps the qualifier a document may write before a type
// to the directory that declares it.
var docLintPackages = map[string]string{"tdp": ".", "attrspace": "internal/attrspace", "telemetry": "internal/telemetry", "wire": "internal/wire"}

// docMember is T.M or (*T).M, optionally qualified (attrspace.Client.PutAt);
// a type qualified by another package (mrnet.Config) is not checked.
var docMember = regexp.MustCompile(`(?:\b([a-z]\w*)\.)?(?:\(\*)?\b([A-Z]\w*)\)?\.([A-Za-z_]\w*)`)

// docQualified is a qualified package-level name (wire.NewConn,
// attrspace.Global), which the package must declare.
var docQualified = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)`)

func TestDocsNameRealMembers(t *testing.T) {
	members := map[string]map[string]map[string]bool{} // qualifier → type → member
	for qual, dir := range docLintPackages {
		members[qual] = declaredMembers(t, dir)
	}
	resolved := 0
	for _, file := range docLintFiles(t) {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range inlineCode(string(doc)) {
			for _, m := range docQualified.FindAllStringSubmatch(span.text, -1) {
				if _, ours := docLintPackages[m[1]]; ours && !members[m[1]][""][m[2]] {
					t.Errorf("%s:%d: `%s` names %s.%s, which does not exist", file, span.line, span.text, m[1], m[2])
				}
			}
			for _, m := range docMember.FindAllStringSubmatch(span.text, -1) {
				qual, typ, member := m[1], m[2], m[3]
				if _, ours := docLintPackages[qual]; qual != "" && !ours {
					continue
				}
				known, exists := false, false
				for q, types := range members {
					if qual != "" && q != qual {
						continue
					}
					if ms, ok := types[typ]; ok {
						known = true
						exists = exists || ms[member]
					}
				}
				if known && !exists {
					t.Errorf("%s:%d: `%s` names %s.%s, which does not exist", file, span.line, span.text, typ, member)
				}
				if exists {
					resolved++
				}
			}
		}
	}
	if resolved == 0 {
		t.Error("the documents name no member the check could resolve: it is checking nothing")
	}
}

// docPath is a repository path in a code span: one under internal/,
// cmd/, scripts/, examples/ or bench/, at the start of a word, after
// "./" or in an import path ("tdp/internal/attr").
var docPath = regexp.MustCompile(`(?:^|[^\w./-]|\./|\btdp/)((?:internal|cmd|scripts|examples|bench)/[\w./-]*)`)

// generatedPaths are named by the documents but exist only once a run
// has made them: bench/run.sh writes its results under bench/out/,
// which git ignores.
var generatedPaths = []string{"bench/out/"}

func TestDocsNameRealPaths(t *testing.T) {
	checked := 0
	for _, file := range docLintFiles(t) {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
	spans:
		for _, span := range inlineCode(string(doc)) {
			for _, m := range docPath.FindAllStringSubmatch(span.text, -1) {
				path := strings.TrimRight(m[1], ".,")
				for _, gen := range generatedPaths {
					if strings.HasPrefix(path, gen) {
						continue spans
					}
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d: `%s` names %s, which does not exist", file, span.line, span.text, path)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Error("the documents name no repository path: the check is checking nothing")
	}
}

// codeSpan is one inline `code` span of a Markdown document.
type codeSpan struct {
	text string
	line int
}

// inlineCode returns the document's inline code spans, skipping fenced
// blocks (shell sessions, not prose naming calls).
func inlineCode(doc string) []codeSpan {
	var spans []codeSpan
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		parts := strings.Split(line, "`")
		for j := 1; j < len(parts)-1; j += 2 {
			spans = append(spans, codeSpan{text: parts[j], line: i + 1})
		}
	}
	return spans
}

// declaredMembers parses the non-test Go files of dir and returns, for
// every type declared there (aliases of other packages' types aside),
// the names of its methods and fields, and under "" the package's own
// top-level names. No type of either package embeds another, so nothing
// is promoted.
func declaredMembers(t *testing.T, dir string) map[string]map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]map[string]bool{}
	add := func(typ, member string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		members[typ][member] = true
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						add(receiverType(d.Recv.List[0].Type), d.Name.Name)
					} else {
						add("", d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, name := range vs.Names {
								add("", name.Name)
							}
						}
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						add("", ts.Name.Name)
						if ts.Assign.IsValid() {
							continue
						}
						add(ts.Name.Name, "") // a type with no members is still a type
						var fields *ast.FieldList
						switch tt := ts.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, name := range field.Names {
								add(ts.Name.Name, name.Name)
							}
						}
					}
				}
			}
		}
	}
	return members
}

// receiverType is the type name of a method's receiver, T or *T.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// docVerb is a wire exchange written out in a code span, a verb followed
// by a key=value field: `SNAP seqs=1`, `EVENT op=lost lost=<d>`.
var docVerb = regexp.MustCompile(`^([A-Z][A-Z0-9]*) [a-z_]\w*=`)

// TestDocsNameRealVerbs: every verb the documents write out that way is
// a request verb of the op table (internal/attrspace/ops.go) or a word
// of the wire vocabulary (internal/wire/wire.go), which holds the
// replies and the tool-stream verbs; a verb that leaves the protocol
// takes its sentences with it.
func TestDocsNameRealVerbs(t *testing.T) {
	verbs := map[string]bool{}
	for _, src := range []string{"internal/attrspace/ops.go", "internal/wire/wire.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.ValueSpec: // var opTable = []opSpec{{verb: "HELLO", …}, …}
				if d.Names[0].Name != "opTable" {
					return false
				}
			case *ast.FuncDecl: // func init() { words := []string{"HELLO", …} … }
				return d.Name.Name == "init"
			case *ast.BasicLit:
				if d.Kind == token.STRING {
					verbs[strings.Trim(d.Value, `"`)] = true
				}
			}
			return true
		})
	}
	if !verbs["SNAP"] || !verbs["SNAPV"] {
		t.Fatalf("read no verbs from the op table or the vocabulary: %v", verbs)
	}
	checked := 0
	for _, file := range docLintFiles(t) {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range inlineCode(string(doc)) {
			if m := docVerb.FindStringSubmatch(span.text); m != nil {
				if !verbs[m[1]] {
					t.Errorf("%s:%d: `%s` names verb %s, which is neither in the op table nor in the wire vocabulary", file, span.line, span.text, m[1])
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Error("the documents write out no verb: the check is checking nothing")
	}
}

// makeFuzz is one `make fuzz` line: the package it runs in and the
// target it names.
var makeFuzz = regexp.MustCompile(`test (\./\S+) .*-fuzz=(\w+)`)

// TestMakeFuzzTargetsExist: every -fuzz=Name in the Makefile is a fuzz
// function of the package it runs in. `go test -fuzz` given a name that
// matches nothing prints a warning and exits 0, so a deleted target
// would leave `make fuzz` green while it fuzzes nothing.
func TestMakeFuzzTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	lines := makeFuzz.FindAllStringSubmatch(string(mk), -1)
	if len(lines) == 0 {
		t.Fatal("the Makefile names no fuzz target: the check is checking nothing")
	}
	for _, m := range lines {
		dir, name := m[1], m[2]
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range tests {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found = found || strings.Contains(string(src), "func "+name+"(")
		}
		if !found {
			t.Errorf("Makefile fuzzes %s in %s, which declares no func %s(", name, dir, name)
		}
	}
}

// makeRun is one `go test <pkg> -run <re>` line of the Makefile: the
// package and the pattern, quoted or not, with make's `$$` still in it.
var makeRun = regexp.MustCompile(`test (\./\S+) .*-run[= ]'?([^'\s]+)'?`)

// testFunc is a top-level test function's name.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// TestMakeRunPatternsMatchTests: every `-run` pattern in the Makefile
// (`make chaos`, `make scenario-smoke`, the global-write smoke, …)
// matches at least one test of the package it runs in. `go test -run`
// given a pattern that matches nothing runs nothing and passes, so a
// deleted or renamed test would leave its target green and empty. The
// fuzz lines' `^$`, which runs no test on purpose, is exempt.
func TestMakeRunPatternsMatchTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, m := range makeRun.FindAllStringSubmatch(string(mk), -1) {
		dir, pattern := m[1], strings.ReplaceAll(m[2], "$$", "$")
		if pattern == "^$" {
			continue
		}
		re, err := regexp.Compile(strings.SplitN(pattern, "/", 2)[0])
		if err != nil {
			t.Errorf("Makefile runs %s in %s: %v", pattern, dir, err)
			continue
		}
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range tests {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range testFunc.FindAllStringSubmatch(string(src), -1) {
				found = found || re.MatchString(name[1])
			}
		}
		if !found {
			t.Errorf("Makefile runs -run %s in %s, which matches no func Test there", pattern, dir)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("the Makefile names no -run pattern: the check is checking nothing")
	}
}
