package trickledown_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are method names that satisfy interfaces declared
// outside the module (fmt.Stringer, error, http.Handler, errors.Unwrap,
// errors.Is, json.Marshaler/Unmarshaler, io.Reader/Writer/Closer).
// Their callers live in the standard library, so no identifier in the
// module names them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true,
}

// benchmarkOnly are the functions whose only non-test callers are the
// benchmark/ module and each other. They stay until ROADMAP item 3(b)
// points the benchmark at the production paths and deletes them; the
// guard fails when one is gone, stops being called from benchmark/ or
// gains another caller, so the list cannot go stale.
var benchmarkOnly = []string{
	"core.(*Estimator).EstimateMetrics",
	"cpu.SliceStats.TotalBusTx",
	"machine.(*Server).Config",
	"perfctr.DecodeBatchExt",
	"perfctr.DecodeBatchFull",
	"power.(*Profile).CPU",
	"power.(*Profile).Disk",
	"power.(*Profile).Memory",
	"sim.(*RNG).Intn",
	"validate.(*Report).ChecksOK",
}

// goFile is one parsed non-test source file of the module.
type goFile struct {
	dir   string // slash-separated, relative to the module root
	bench bool   // under benchmark/
	file  *ast.File
	fset  *token.FileSet
	pkgs  map[string]string // import name -> module-relative directory
}

// funcDecl is one top-level function or method declared under
// internal/.
type funcDecl struct {
	key  string // pkg.Func, pkg.Type.Method or pkg.(*Type).Method
	name string
	dir  string
	recv bool
	decl *ast.FuncDecl
	pos  token.Position
}

// TestNoTestOnlyFuncs fails when a top-level function or method
// declared under internal/ has no reference from non-test Go other
// than its own declaration: code that only its tests run. See
// deadFuncs for what counts as a reference; a benchmarkOnly entry
// fails when it is stale.
func TestNoTestOnlyFuncs(t *testing.T) {
	dead, stale := deadFuncs(parseModule(t, ".", module), module, benchmarkOnly)
	for _, s := range stale {
		t.Error(s)
	}
	for _, k := range sortedKeys(dead) {
		t.Error(dead[k])
	}
}

// TestDeadFuncsFixture runs the guard on testdata/deadcode, a module
// with one declaration per case: a function only tests call, a method
// only tests call whose one same-named call outside tests is on an
// atomic.Uint64, a function only benchmark/ calls, an exempt String
// method, and declarations a command calls.
func TestDeadFuncsFixture(t *testing.T) {
	const fixture = "fixture"
	dead, stale := deadFuncs(parseModule(t, "testdata/deadcode", fixture), fixture, nil)
	if len(stale) != 0 {
		t.Errorf("stale entries %v with no benchmarkOnly list", stale)
	}
	want := []string{"trace.(*Trace).Add", "trace.BenchOnly", "trace.OnlyTests"}
	if got := sortedKeys(dead); !reflect.DeepEqual(got, want) {
		t.Errorf("flagged %v, want %v", got, want)
	}
	if msg := dead["trace.BenchOnly"]; !strings.Contains(msg, "benchmark/") {
		t.Errorf("BenchOnly's finding %q does not name benchmark/ as its caller", msg)
	}
}

// module is the import path of the repository's module.
const module = "trickledown"

// deadFuncs returns, keyed by declaration, one finding per top-level
// function or method declared under internal/ that non-test Go does
// not reference, and one message per stale benchmarkOnly entry. files
// are the module's parsed non-test files; benchmark/ is parsed but
// does not count as a caller, and neither does the body of a
// benchOnly function.
//
// A function is referenced by its package-qualified name from another
// package, or by its bare name from its own package. A method is
// referenced by a selector the type checker resolves to it. A selector
// whose operand has a standard library type references no method of
// the module. A selector resolved to an interface method, one that
// cannot be resolved (it reaches through an expression whose standard
// library type is unknown), and any other use of the name that is not
// a declaration or a field, variable, type or package, reference every
// method of that name, which never flags a method that has a caller.
// init, main and interfaceMethods are exempt. Types, constants and
// variables are out of scope: returned types and sentinel errors are
// used without being named.
func deadFuncs(files []goFile, module string, benchOnly []string) (dead map[string]string, stale []string) {
	info := typeCheck(files, module)
	var decls []funcDecl
	for _, f := range files {
		if f.bench || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls = append(decls, funcDecl{
				key:  declKey(f.file.Name.Name, fd),
				name: fd.Name.Name,
				dir:  f.dir,
				recv: fd.Recv != nil,
				decl: fd,
				pos:  f.fset.Position(fd.Pos()),
			})
		}
	}

	listed := map[string]bool{}
	for _, k := range benchOnly {
		listed[k] = true
	}
	// refs[i] and benchRefs[i] count decls[i]'s references outside and
	// inside benchmark/. A reference from the body of a benchOnly
	// function counts as inside: benchmark/ is its only caller.
	refs := make([]int, len(decls))
	benchRefs := make([]int, len(decls))
	byName := map[string][]int{}
	byObj := map[types.Object]int{}
	benchBody := map[ast.Decl]bool{}
	for i, d := range decls {
		byName[d.name] = append(byName[d.name], i)
		if obj := info.Defs[d.decl.Name]; obj != nil && d.recv {
			byObj[obj] = i
		}
		benchBody[d.decl] = listed[d.key]
	}
	// resolved holds the selectors' method names already settled: each
	// references the one method the type checker resolved it to, or no
	// method of the module.
	resolved := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, decl := range f.file.Decls {
			count := refs
			if f.bench || benchBody[decl] {
				count = benchRefs
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if sel := info.Selections[n]; sel != nil && sel.Kind() != types.FieldVal {
						if i, ok := byObj[sel.Obj()]; ok {
							if !within(n, decls[i].decl) {
								count[i]++
							}
							resolved[n.Sel] = true
							return true
						}
					}
					if stdType(info.TypeOf(n.X), module) {
						resolved[n.Sel] = true
						return true
					}
					// pkg.Func from another package.
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := f.pkgs[x.Name]; ok {
							for _, i := range byName[n.Sel.Name] {
								if !decls[i].recv && decls[i].dir == dir {
									count[i]++
								}
							}
						}
					}
				case *ast.Ident:
					if resolved[n] || info.Defs[n] != nil {
						return true
					}
					if _, fn := info.Uses[n].(*types.Func); info.Uses[n] != nil && !fn {
						return true // a field, variable, type or package by that name
					}
					for _, i := range byName[n.Name] {
						d := decls[i]
						if n == d.decl.Name || within(n, d.decl) {
							continue
						}
						if d.recv || d.dir == f.dir {
							count[i]++
						}
					}
				}
				return true
			})
		}
	}

	found := map[string]bool{}
	dead = map[string]string{}
	for i, d := range decls {
		at := d.pos.String() + ": " + d.key
		if listed[d.key] {
			found[d.key] = true
			switch {
			case refs[i] > 0:
				stale = append(stale, at+" is listed as benchmark/ only but has a caller outside benchmark/; drop it from benchmarkOnly")
			case benchRefs[i] == 0:
				stale = append(stale, at+" is listed as benchmark/ only but benchmark/ no longer calls it; delete it and drop it from benchmarkOnly")
			}
			continue
		}
		if refs[i] > 0 || d.name == "init" || d.name == "main" || (d.recv && interfaceMethods[d.name]) {
			continue
		}
		dead[d.key] = at + " has no caller outside tests; delete it, or move it into the _test.go file that uses it"
		if benchRefs[i] > 0 {
			dead[d.key] = at + " has no caller outside tests and benchmark/; delete it with its benchmark/ callers, or list it in benchmarkOnly"
		}
	}
	for _, k := range benchOnly {
		if !found[k] {
			stale = append(stale, k+" is listed as benchmark/ only but is not declared under internal/; drop it from benchmarkOnly")
		}
	}
	return dead, stale
}

// stdType reports whether t, or the type t points to, is a named type
// of a package outside module: its methods are none of the module's.
func stdType(t types.Type, module string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path != module && !strings.HasPrefix(path, module+"/")
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseModule parses every non-test .go file under root, the root of
// the module named module, benchmark/ included, skipping testdata and
// hidden directories.
func parseModule(t *testing.T, root, module string) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		g := goFile{dir: dir, bench: dir == "benchmark" || strings.HasPrefix(dir, "benchmark/"),
			file: f, fset: fset, pkgs: map[string]string{}}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(p, module+"/") {
				continue
			}
			rel := strings.TrimPrefix(p, module+"/")
			local := rel[strings.LastIndex(rel, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			g.pkgs[local] = rel
		}
		files = append(files, g)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files found under %s; the test must run from the module root", root)
	}
	return files
}

// declKey names a declaration as pkg.Func, pkg.Type.Method or
// pkg.(*Type).Method.
func declKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := "?"
	if id, ok := typ.(*ast.Ident); ok {
		name = id.Name
	}
	if star {
		return pkg + ".(*" + name + ")." + fd.Name.Name
	}
	return pkg + "." + name + "." + fd.Name.Name
}

// within reports whether n lies inside decl, so a recursive call is
// not a caller.
func within(n ast.Node, decl *ast.FuncDecl) bool {
	return n.Pos() >= decl.Pos() && n.End() <= decl.End()
}

// unsetFieldAllowed are the exported Config and Options fields that no
// non-test Go writes, each with the reason it stays.
var unsetFieldAllowed = map[string]string{
	"machine.Config.Power": "TestMethodPortsToBladeProfile sets a blade profile through it to check the paper's premise that coefficients are per machine; nil is the paper's server",
}

// TestNoUnsetConfigFields fails when an exported field of a struct
// type declared under internal/ whose name ends in Config or Options is
// written by no non-test Go, benchmark/ included: a setting no caller
// varies. A write is a composite-literal key, an assignment or op=, ++
// or --, or taking the field's address. The module is type-checked
// from source so that each write resolves to its field.
func TestNoUnsetConfigFields(t *testing.T) {
	files := parseModule(t, ".", module)
	fset := files[0].fset
	info := typeCheck(files, module)

	// fields maps each tracked field to its pkg.Type.Field name.
	fields := map[types.Object]string{}
	for _, f := range files {
		if f.bench || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if ok && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if !id.IsExported() {
							continue
						}
						obj := info.Defs[id]
						if obj == nil {
							t.Fatalf("%s: field %s did not type-check", fset.Position(id.Pos()), id.Name)
						}
						fields[obj] = f.file.Name.Name + "." + name + "." + id.Name
					}
				}
			}
			return false
		})
	}

	written := map[types.Object]bool{}
	selector := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj()] = true
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						written[obj] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					selector(lhs)
				}
			case *ast.IncDecStmt:
				selector(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					selector(n.X)
				}
			}
			return true
		})
	}

	declared := map[string]bool{}
	var unset []string
	for obj, key := range fields {
		declared[key] = true
		pos := fset.Position(obj.Pos())
		_, allowed := unsetFieldAllowed[key]
		switch {
		case allowed && written[obj]:
			t.Errorf("%s: %s is allowed to be unset but non-test Go now writes it; drop it from unsetFieldAllowed", pos, key)
		case !allowed && !written[obj]:
			unset = append(unset, pos.String()+": "+key+" is written by no non-test Go; make it a constant, or delete it with the branches it selects")
		}
	}
	for k := range unsetFieldAllowed {
		if !declared[k] {
			t.Errorf("%s is in unsetFieldAllowed but is not an exported Config or Options field under internal/; drop it", k)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Error(u)
	}
}

// typeCheck type-checks every parsed package of module from source and
// returns what the checker resolved. A standard library import is a
// stub package holding, for each name the module selects from it, an
// empty interface type, generic when the module instantiates it: a
// value declared with a standard library type keeps that type, and an
// expression that calls into the standard library stays unresolved.
// The type errors the stubs cause are ignored.
func typeCheck(files []goFile, module string) *types.Info {
	fset := files[0].fset
	byDir := map[string][]*ast.File{}
	// stdNames maps each standard library import path to the names the
	// module selects from it, with their type-parameter counts.
	stdNames := map[string]map[string]int{}
	for _, f := range files {
		byDir[f.dir] = append(byDir[f.dir], f.file)
		std := map[string]string{}
		for _, imp := range f.file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p == "unsafe" || strings.HasPrefix(p, module+"/") {
				continue
			}
			local := stdName(p)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			std[local] = p
			if stdNames[p] == nil {
				stdNames[p] = map[string]int{}
			}
		}
		note := func(e ast.Expr, params int) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && std[x.Name] != "" {
					names := stdNames[std[x.Name]]
					names[sel.Sel.Name] = max(names[sel.Sel.Name], params)
				}
			}
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				note(n.X, 1)
			case *ast.IndexListExpr:
				note(n.X, len(n.Indices))
			case *ast.SelectorExpr:
				note(n, 0)
			}
			return true
		})
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	checked := map[string]*types.Package{}
	var imp importerFunc
	check := func(dir string) *types.Package {
		if p, ok := checked[dir]; ok {
			return p
		}
		path := module
		if dir != "." {
			path += "/" + dir
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		p, _ := conf.Check(path, fset, byDir[dir], info)
		checked[dir] = p
		return p
	}
	std := map[string]*types.Package{"unsafe": types.Unsafe}
	imp = func(path string) (*types.Package, error) {
		if dir, ok := strings.CutPrefix(path, module+"/"); ok {
			return check(dir), nil
		}
		if p, ok := std[path]; ok {
			return p, nil
		}
		p := types.NewPackage(path, stdName(path))
		anyType := types.Universe.Lookup("any").Type()
		for name, params := range stdNames[path] {
			tn := types.NewTypeName(token.NoPos, p, name, nil)
			named := types.NewNamed(tn, types.NewInterfaceType(nil, nil), nil)
			var tps []*types.TypeParam
			for i := 0; i < params; i++ {
				tps = append(tps, types.NewTypeParam(types.NewTypeName(token.NoPos, p, "T"+strconv.Itoa(i), nil), anyType))
			}
			named.SetTypeParams(tps)
			p.Scope().Insert(tn)
		}
		p.MarkComplete()
		std[path] = p
		return p, nil
	}
	for dir := range byDir {
		check(dir)
	}
	return info
}

// stdName is the package name of a standard library import path.
func stdName(path string) string { return path[strings.LastIndex(path, "/")+1:] }

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
