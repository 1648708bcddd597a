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
// or (*T).M, for T a type declared in package tdp or
// internal/attrspace, must exist; a rename that leaves a sentence behind
// fails here until the sentence follows it.
func docLintFiles(t *testing.T) []string {
	notes, err := filepath.Glob(".*/skills/verify/SKILL.md")
	if err != nil || len(notes) != 1 {
		t.Fatalf("verify notes: %v, %v", notes, err)
	}
	return append([]string{"README.md", "DESIGN.md"}, notes...)
}

// docLintPackages maps the qualifier a document may write before a type
// to the directory that declares it.
var docLintPackages = map[string]string{"tdp": ".", "attrspace": "internal/attrspace"}

// docMember is T.M or (*T).M, optionally qualified (attrspace.Client.PutAt);
// a type qualified by another package (mrnet.Config) is not checked.
var docMember = regexp.MustCompile(`(?:\b([a-z]\w*)\.)?(?:\(\*)?\b([A-Z]\w*)\)?\.([A-Za-z_]\w*)`)

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
// the names of its methods and fields. No type of either package embeds
// another, so nothing is promoted.
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
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || ts.Assign.IsValid() {
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
