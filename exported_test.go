package gignite

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

// exportedButUncalled names the exported declarations the guard tolerates
// without a non-test user, each with the reason it has none.
var exportedButUncalled = map[string]string{
	// database/sql calls these through driver interfaces; nothing in the
	// module names them.
	"Begin":       "driver.Conn, called by database/sql",
	"BeginTx":     "driver.ConnBeginTx, called by database/sql",
	"IsValid":     "driver.Validator, called by database/sql",
	"NumInput":    "driver.Stmt, called by database/sql",
	"MarshalJSON": "json.Marshaler, called by encoding/json",
	// Test conveniences with many users across packages.
	"NewStore":  "storage: unreplicated store for the packages' unit tests",
	"Labels":    "harness.Report: row labels for experiment tests",
	"Canonical": "empdb: the fixture package only tests import; its other names collide with live ones",
}

// TestExportedNamesHaveCallers keeps exported-but-unused code from
// accumulating: every exported top-level function, method, constant and
// variable declared under internal/, driver/ and cmd/ must be named by
// some non-test file of the module (bench/ included) outside its own
// declaration. Matching is by name only, so a use of any String counts
// for every String: the scan can miss dead code, it cannot report live
// code. A function's calls to itself do not count.
func TestExportedNamesHaveCallers(t *testing.T) {
	type decl struct {
		name, where string
		body        *ast.BlockStmt // the declaring function's body, nil for values
	}
	var decls []decl
	var files []*ast.File
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		files = append(files, f)
		slash := filepath.ToSlash(path)
		if !strings.HasPrefix(slash, "internal/") && !strings.HasPrefix(slash, "driver/") && !strings.HasPrefix(slash, "cmd/") {
			return nil
		}
		add := func(id *ast.Ident, body *ast.BlockStmt) {
			if id.IsExported() {
				decls = append(decls, decl{id.Name, fset.Position(id.Pos()).String(), body})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Body)
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						add(id, nil)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses counts every identifier occurrence by name.
	uses := make(map[string]int)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
	}
	// Per name: its declarations and the occurrences inside the declaring
	// functions' own bodies, neither of which is a use.
	notUses := make(map[string]int)
	for _, d := range decls {
		notUses[d.name]++
		if d.body == nil {
			continue
		}
		ast.Inspect(d.body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == d.name {
				notUses[d.name]++
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		if _, ok := exportedButUncalled[d.name]; !ok && uses[d.name] <= notUses[d.name] {
			dead = append(dead, d.name+"  ("+d.where+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported name(s) no non-test file uses — delete them (with their tests) or give them a caller:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	if len(exportedButUncalled) > 12 {
		t.Errorf("allowlist has %d names, want <= 12", len(exportedButUncalled))
	}
}
