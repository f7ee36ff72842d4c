package gignite

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed names the declarations the guard tolerates without a
// non-test user, each with the reason it has none. A key is a qualified
// name as the guard reports it, or a package name for a whole package.
var uncalledAllowed = map[string]string{
	"catalog.(*Table).Fields": "a table's full-row schema for the unit tests' hand-built scans",
	"empdb":                   "the fixture package only tests import",
}

// TestExportedNamesHaveCallers keeps code without callers from
// accumulating. Every exported top-level function, method, type, constant
// and variable, and every unexported top-level function, declared under
// internal/, driver/ or cmd/ must be used by some non-test file of the
// module (bench/ included) outside its own declaration; a method's
// receiver naming its type is not a use of the type. Uses are resolved
// by object with go/types, so a use of one String says nothing about
// another. A method also counts as used when its type implements an
// interface, declared in the module or the standard library, that has it.
// An exported method of an interface declared in the module (bench/
// excluded) is itself under guard: it counts as used only when a non-test
// file calls it, through the interface or on a type implementing it,
// outside the implementations themselves.
func TestExportedNamesHaveCallers(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}

	// The interfaces a method may be called through, and the module's
	// types that may have the method, declared or promoted.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var named []types.Type
	seen := make(map[*types.Package]bool)
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		_, inModule := l.pkgs[p.Path()]
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			} else if inModule {
				named = append(named, tn.Type(), types.NewPointer(tn.Type()))
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	for _, p := range l.pkgs {
		collect(p)
	}
	implements := func(fn *types.Func) bool {
		for _, typ := range named {
			if sel := types.NewMethodSet(typ).Lookup(fn.Pkg(), fn.Name()); sel == nil || sel.Obj() != fn {
				continue
			}
			for _, it := range ifaces {
				for i := 0; i < it.NumMethods(); i++ {
					if it.Method(i).Name() == fn.Name() && types.Implements(typ, it) {
						return true
					}
				}
			}
		}
		return false
	}

	// The declarations under guard, with the extent of each function's own
	// declaration: a function's references to itself are not uses. iface
	// is the interface declaring a method under the interface rule.
	type decl struct {
		obj      types.Object
		pkg      string
		from, to token.Pos
		iface    *types.Interface
	}
	var decls []decl
	funcs := make(map[types.Object]*ast.FuncDecl)
	var receivers []*ast.FieldList
	for path, files := range l.files {
		rel := strings.TrimPrefix(path, "gignite/")
		guarded := strings.HasPrefix(rel, "internal/") || rel == "driver" || strings.HasPrefix(rel, "driver/") || strings.HasPrefix(rel, "cmd/")
		bench := rel == "bench" || strings.HasPrefix(rel, "bench/")
		pkg := l.pkgs[path].Name()
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					funcs[l.info.Defs[d.Name]] = d
					if d.Recv != nil {
						receivers = append(receivers, d.Recv)
					}
					name := d.Name.Name
					if guarded && (d.Name.IsExported() || (d.Recv == nil && name != "init" && name != "main")) {
						decls = append(decls, decl{l.info.Defs[d.Name], pkg, d.Pos(), d.End(), nil})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if guarded && id.IsExported() {
									decls = append(decls, decl{l.info.Defs[id], pkg, id.Pos(), id.End(), nil})
								}
							}
						case *ast.TypeSpec:
							if guarded && spec.Name.IsExported() {
								decls = append(decls, decl{l.info.Defs[spec.Name], pkg, spec.Pos(), spec.End(), nil})
							}
							it, ok := l.info.Defs[spec.Name].Type().Underlying().(*types.Interface)
							if !ok || bench {
								continue
							}
							for i := 0; i < it.NumExplicitMethods(); i++ {
								if m := it.ExplicitMethod(i); m.Exported() {
									decls = append(decls, decl{m, pkg, m.Pos(), m.Pos(), it})
								}
							}
						}
					}
				}
			}
		}
	}

	inReceiver := func(pos token.Pos) bool {
		for _, r := range receivers {
			if pos >= r.Pos() && pos < r.End() {
				return true
			}
		}
		return false
	}
	uses := make(map[types.Object][]token.Pos)
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		case *types.TypeName:
			if inReceiver(id.Pos()) {
				continue
			}
		}
		uses[obj] = append(uses[obj], id.Pos())
	}
	// calledThrough reports whether a non-test file calls an interface's
	// method, through the interface or on a module type implementing it,
	// outside every implementation: one implementation delegating to
	// another is not a caller.
	calledThrough := func(fn *types.Func, it *types.Interface) bool {
		callees := []types.Object{fn}
		var impls []*ast.FuncDecl
		for _, typ := range named {
			if sel := types.NewMethodSet(typ).Lookup(fn.Pkg(), fn.Name()); sel != nil && types.Implements(typ, it) {
				callees = append(callees, sel.Obj())
				if d := funcs[sel.Obj()]; d != nil {
					impls = append(impls, d)
				}
			}
		}
		for _, callee := range callees {
		next:
			for _, pos := range uses[callee] {
				for _, d := range impls {
					if pos >= d.Pos() && pos < d.End() {
						continue next
					}
				}
				return true
			}
		}
		return false
	}

	var dead []string
	for _, d := range decls {
		name := qualifiedName(d.pkg, d.obj)
		if _, ok := uncalledAllowed[name]; ok {
			continue
		}
		if _, ok := uncalledAllowed[d.pkg]; ok {
			continue
		}
		used := false
		if d.iface != nil {
			used = calledThrough(d.obj.(*types.Func), d.iface)
		} else {
			for _, pos := range uses[d.obj] {
				if pos < d.from || pos >= d.to {
					used = true
					break
				}
			}
			if fn, ok := d.obj.(*types.Func); !used && ok && fn.Type().(*types.Signature).Recv() != nil {
				used = implements(fn)
			}
		}
		if !used {
			dead = append(dead, name+"  ("+l.fset.Position(d.from).String()+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declaration(s) no non-test file uses (an interface's method: calls through the interface or on an implementing type, outside the implementations) — delete them (with their tests) or give them a caller:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	if len(uncalledAllowed) > 12 {
		t.Errorf("allowlist has %d names, want <= 12", len(uncalledAllowed))
	}
}

// qualifiedName renders an object as pkg.Name, pkg.T.Method or
// pkg.(*T).Method.
func qualifiedName(pkg string, obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return pkg + "." + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		return pkg + ".(*" + ptr.Elem().(*types.Named).Obj().Name() + ")." + fn.Name()
	}
	return pkg + "." + recv.(*types.Named).Obj().Name() + "." + fn.Name()
}

// moduleLoader type-checks the module's non-test files (bench/ included)
// from source, resolving gignite/... imports itself and the standard
// library through the source importer. One Info covers every package.
type moduleLoader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

// loadModule parses and type-checks every package under root.
func loadModule(root string) (*moduleLoader, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset:  fset,
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
		std: importer.ForCompiler(fset, "source", nil),
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The bench module is gignite/bench, so one mapping serves both.
		ipath := "gignite"
		if rel := filepath.ToSlash(filepath.Clean(dir)); rel != "." {
			ipath += "/" + rel
		}
		l.files[ipath] = append(l.files[ipath], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range l.files {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
