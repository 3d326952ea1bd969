package trickledown_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// interfaceMethods are method names that satisfy interfaces declared
// outside the module (fmt.Stringer, error, http.Handler, errors.Unwrap,
// json.Marshaler/Unmarshaler, io.Reader/Writer/Closer). Their callers
// live in the standard library, so no identifier in the module names
// them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Unwrap": true,
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

// testOnly are the functions and methods only tests call today, found
// once method references resolved by type instead of by name: a
// namesake's caller had hidden each of them. They stay until ROADMAP
// item 5 deletes them or gives them a caller; the guard fails when one
// is gone or gains a caller outside tests, so the list only shrinks.
var testOnly = []string{
	"cluster.(*Cluster).Quarantined",
	"cluster.(*Cluster).Workers",
	"experiments.(*Table).Row",
	"iobus.(*APIC).Count",
	"iobus.(*APIC).NumCPUs",
	"machine.(*Server).Clock",
	"machine.(*Server).FreqScale",
	"machine.(*Server).OS",
	"machine.(*Server).SetFreqScale",
	"machine.(*Server).SetThrottle",
	"machine.(*Server).Spec",
	"machine.(*Server).Throttle",
	"osmodel.(*OS).DirtyBytes",
	"serve.(*Server).QueueDepth",
	"serve.(*Server).SetFaultInjector",
	"sim.(*Clock).CoreHz",
	"sim.(*Engine).Clock",
	"telemetry.WriteOpenMetrics",
	"thermal.(*Model).Params",
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
// than its own declaration: code that only its tests run. benchmark/
// is parsed but does not count as a caller, and neither does the body
// of a benchmarkOnly function. A function is referenced by its
// package-qualified name from another package, or by its bare name
// from its own package. A method is referenced by a selector the type
// checker resolves to it; a selector it resolves to an interface
// method, or cannot resolve (it reaches through a stubbed standard
// library type), and any other use of the name that is
// not a declaration or a field, variable, type or package, reference
// every method of that name, which never fails a method that has a
// caller. init, main and interfaceMethods are exempt. Types, constants
// and variables are out of scope: returned types and sentinel errors
// are used without being named.
func TestNoTestOnlyFuncs(t *testing.T) {
	files := parseModule(t)
	info := typeCheck(files)
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
	for _, k := range benchmarkOnly {
		listed[k] = true
	}
	pending := map[string]bool{}
	for _, k := range testOnly {
		pending[k] = true
	}
	// refs[i] and benchRefs[i] count decls[i]'s references outside and
	// inside benchmark/. A reference from the body of a benchmarkOnly
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
	// resolved holds the selectors' method names already credited to
	// the one method the type checker resolved them to.
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
	var dead []string
	for i, d := range decls {
		if listed[d.key] {
			found[d.key] = true
			switch {
			case refs[i] > 0:
				t.Errorf("%s: %s is listed as benchmark/ only but has a caller outside benchmark/; drop it from benchmarkOnly", d.pos, d.key)
			case benchRefs[i] == 0:
				t.Errorf("%s: %s is listed as benchmark/ only but benchmark/ no longer calls it; delete it and drop it from benchmarkOnly", d.pos, d.key)
			}
			continue
		}
		if pending[d.key] {
			found[d.key] = true
			if refs[i] > 0 {
				t.Errorf("%s: %s is listed as test-only but has a caller outside tests; drop it from testOnly", d.pos, d.key)
			}
			continue
		}
		if refs[i] > 0 || d.name == "init" || d.name == "main" || (d.recv && interfaceMethods[d.name]) {
			continue
		}
		msg := d.pos.String() + ": " + d.key + " has no caller outside tests; delete it, or move it into the _test.go file that uses it"
		if benchRefs[i] > 0 {
			msg = d.pos.String() + ": " + d.key + " has no caller outside tests and benchmark/; delete it with its benchmark/ callers, or list it in benchmarkOnly"
		}
		dead = append(dead, msg)
	}
	for _, k := range benchmarkOnly {
		if !found[k] {
			t.Errorf("%s is listed as benchmark/ only but is not declared under internal/; drop it from benchmarkOnly", k)
		}
	}
	for _, k := range testOnly {
		if !found[k] {
			t.Errorf("%s is listed as test-only but is not declared under internal/; drop it from testOnly", k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// parseModule parses every non-test .go file under the module root,
// benchmark/ included, skipping testdata and hidden directories.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	const module = "trickledown"
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		dir := filepath.ToSlash(filepath.Dir(path))
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
		t.Fatal("no Go files found; the test must run from the module root")
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
	files := parseModule(t)
	fset := files[0].fset
	info := typeCheck(files)

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

// typeCheck type-checks every parsed package from source and returns
// what the checker resolved. Standard library imports are empty
// packages, and the type errors they cause are ignored: an expression
// that reaches through one stays unresolved, and callers fall back to
// matching by name there.
func typeCheck(files []goFile) *types.Info {
	fset := files[0].fset
	byDir := map[string][]*ast.File{}
	for _, f := range files {
		byDir[f.dir] = append(byDir[f.dir], f.file)
	}
	info := &types.Info{
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
		path := "trickledown"
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
		if dir, ok := strings.CutPrefix(path, "trickledown/"); ok {
			return check(dir), nil
		}
		if p, ok := std[path]; ok {
			return p, nil
		}
		p := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
		p.MarkComplete()
		std[path] = p
		return p, nil
	}
	for dir := range byDir {
		check(dir)
	}
	return info
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
