package liteview

// Dead-API guard: every exported name declared in internal/ must be
// referenced from some non-test Go file in the repository (cmd/,
// examples/, lvperf/, or internal/ itself), or be on the allow-list
// below with the reason it stays. Names are matched as identifiers,
// not resolved as types, so a dead method that shares its name with a
// live one goes unnoticed; a live name is never reported.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported names that only tests reference,
// each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"medium.Medium.Detach":             "contract: FuzzMediumPurity detaches nodes mid-run against the full-scan oracle",
	"medium.Medium.InvalidateTopology": "contract: FuzzMediumPurity retunes the model mid-run against the full-scan oracle",
	"stack.DecodePacket":               "contract: FuzzDecodePacket drives the copying decoder; the receive path decodes in place",
	"diagnose.DiagnosePath":            "the paper's path workflow; ROADMAP's diagnosis-scoring item gives it a shell command",
	"liteos.Node.Alive":                "contract: the crash/reboot oracle TestLPLDutyCycleEquivalence reads power state through it",
	"medium.Medium.FaultHooked":        "contract: TestHooksLiveOnlyWhileActive pins that fault hooks exist only while a fault is active; no output shows an idle hook",
	"mac.MAC.RxFaultHooked":            "contract: TestHooksLiveOnlyWhileActive pins that fault hooks exist only while a fault is active; no output shows an idle hook",
}

func TestExportedNamesHaveUsers(t *testing.T) {
	// decls maps each exported name declared in internal/ to its
	// declarations, as pkg.Name or pkg.Recv.Name.
	decls := map[string][]string{}
	// refs counts each identifier in non-test files, declarations
	// included; tested holds the identifiers of test files.
	refs := map[string]int{}
	tested := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if test {
					tested[id.Name] = true
				} else {
					refs[id.Name]++
				}
			}
			return true
		})
		if !test && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			collectExports(f, decls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead, testOnly []string
	for name, quals := range decls {
		if refs[name] > len(quals) {
			continue // some non-test identifier besides the declarations
		}
		if tested[name] {
			testOnly = append(testOnly, quals...)
		} else {
			dead = append(dead, quals...)
		}
	}
	sort.Strings(dead)
	sort.Strings(testOnly)
	t.Logf("%d exported names are referenced only from tests: %s", len(testOnly), strings.Join(testOnly, ", "))
	for _, q := range dead {
		t.Errorf("%s is exported but nothing references it: delete it", q)
	}
	for _, q := range testOnly {
		if _, ok := testOnlyAllowed[q]; !ok {
			t.Errorf("%s is referenced only from tests: give it a user, delete it, or allow-list it with a reason", q)
		}
	}
	for q := range testOnlyAllowed {
		if i := sort.SearchStrings(testOnly, q); i == len(testOnly) || testOnly[i] != q {
			t.Errorf("allow-list entry %s is stale: it has a non-test user or is gone", q)
		}
	}
}

// collectExports adds f's exported top-level functions, methods, types,
// vars and consts to decls.
func collectExports(f *ast.File, decls map[string][]string) {
	pkg := f.Name.Name
	add := func(id *ast.Ident, qual string) {
		if id.IsExported() {
			decls[id.Name] = append(decls[id.Name], qual)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name)
			} else {
				add(d.Name, pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, pkg+"."+n.Name)
					}
				}
			}
		}
	}
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
