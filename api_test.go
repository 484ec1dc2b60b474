package abc

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported declarations under internal/ that no
// production file uses but that stay anyway, each with the reason. Keys are
// "pkg.Func", "pkg.Type", "pkg.Type.Method" or "pkg.Type.Field".
// Everything else exported must have a non-test use: an export that only
// tests reach is either wired into the experiment that owns its claim or
// deleted (DESIGN.md decision 13).
var testOnlyAllowed = map[string]string{
	"check.MaxRelevantRatioExhaustive":       "oracle of TestCheckerDifferential",
	"check.Exhaustive":                       "enumeration oracle of the check tests",
	"check.Incremental.Stats":                "TestIncrementalRepairDepthFlat reads it; ROADMAP item 2 wires it into the runner",
	"check.Incremental.Certify":              "extracts the Theorem 7 assignment the incremental tests verify",
	"lp.DifferenceSystem":                    "second formulation compared by TestSystemsAgreeOnFigures",
	"cycles.Satisfies":                       "checks the witness cycles in the check tests",
	"cycles.Cycle.Reversed":                  "drives TestReversedClassificationInvariant",
	"sim.IslandOf":                           "reference for the islands topology layout",
	"sim.TraceBuilder.SetFaulty":             "marks faulty processes in hand-built test traces",
	"sim.Links.NumLinks":                     "one-line accessor",
	"cyclespace.Add":                         "vector sum the Farkas property tests compare AddCycles against",
	"cyclespace.Scale":                       "non-negative combinations in the Farkas property tests",
	"cyclespace.Vector.SatisfiesSumProperty": "Equation (9), asserted by the Farkas property tests",
	"causality.Cut.IsConsistent":             "Definition 5 reference for CutAtTime and CausalCone",
	"lockstep.CheckUniformLockStep":          "Theorem 5 check; E11 is Byzantine-only, so a uniform row would be vacuous",
	"rat.Rat.Den":                            "completes the Num/Den pair of accessors",
	"experiments.RunAll":                     "serial baseline of BenchmarkFleetExperiments",
	"vlsi.Chip.Modules":                      "one-line accessor",
	"vlsi.Chip.Wire":                         "reads back SetWire and Migrate in the vlsi tests",
	"variants.XiLearner.Bumps":               "one-line accessor",
	"causality.Graph.CausalCone":             "cut-by-cut reference of TestCutSynchronyMatchesReference for the one-pass Theorem 2 check",
	"causality.Graph.CutAtTime":              "cut-by-cut reference of TestCutSynchronyMatchesReference for the one-pass Theorem 2 check",
	"causality.Cut.Frontier":                 "reads C_p(S) off the reference cuts of TestCutSynchronyMatchesReference",
	"causality.Graph.Interval":               "Definition 6 reference of TestBoundedProgressMatchesIntervals for the frontier-count Theorem 4 check",
	"causality.Cut.Contains":                 "one-line accessor through which the scenario, clocksync and causality tests read the reference cuts",
	"runner.Job.Check":                       "no production code sets it, but bench/trace.go reads it, and bench/ stays frozen until ROADMAP item 1 removes it",
}

// TestNoTestOnlyExports type-checks every non-test Go file of the
// repository (cmd/, examples/ and the bench/ module included) and fails
// when an exported declaration under internal/ has no non-test use, and
// when an allowlist entry gains a use or names no declaration. Names are
// resolved by type, not matched by spelling:
//
//   - A function, method or type is used when a non-test identifier
//     outside its own declaration and its methods' receivers refers to
//     it. A method also counts as used when non-test code selects an
//     interface method of the same name and signature, through which it
//     may be dispatched. String and Error are exempt.
//   - An exported field of an exported struct type is used when non-test
//     code writes it: a keyed or positional composite literal, an
//     assignment to it or through it (x.F[i] = v), ++/--, or &x.F. A
//     field only tests set is a knob whose production value is always
//     zero. Embedded fields are exempt.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The root module is "repro" and bench/'s is "repro/bench", so
		// one rule maps every directory to its import path.
		ip := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		l.files[ip] = append(l.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.std, err = stdImporter(fset, l.files); err != nil {
		t.Fatal(err)
	}
	for ip := range l.files {
		if _, err := l.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	// The exported declarations under internal/, keyed as in testOnlyAllowed.
	declared := map[types.Object]string{}
	for ip, p := range l.pkgs {
		if !strings.HasPrefix(ip, "repro/internal/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := p.Name() + "." + name
			switch obj := obj.(type) {
			case *types.Func:
				declared[obj] = key
			case *types.TypeName:
				declared[obj] = key
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for m := range named.Methods() {
					if m.Exported() && m.Name() != "String" && m.Name() != "Error" {
						declared[m] = key + "." + m.Name()
					}
				}
				if st, ok := named.Underlying().(*types.Struct); ok {
					for f := range st.Fields() {
						if f.Exported() && !f.Embedded() {
							declared[f] = key + "." + f.Name()
						}
					}
				}
			}
		}
	}

	// A declaration's own span, and its methods' receivers, do not count
	// as uses of it.
	type span struct{ pos, end token.Pos }
	own := map[types.Object][]span{}
	used := map[types.Object]bool{}
	var ifaceSelections []*types.Func
	markWrites := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := l.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					used[sel.Obj().(*types.Var).Origin()] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own[l.info.Defs[d.Name]] = append(own[l.info.Defs[d.Name]], span{d.Pos(), d.End()})
					if d.Recv != nil {
						r := d.Recv.List[0].Type
						if recv := l.receiver(r); recv != nil {
							own[recv] = append(own[recv], span{r.Pos(), r.End()})
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							obj := l.info.Defs[ts.Name]
							own[obj] = append(own[obj], span{ts.Pos(), ts.End()})
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := l.info.Types[n].Type
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem() // an elided &T{...} in a []*T literal
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if f, ok := l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								used[f.Origin()] = true
							}
						} else {
							used[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markWrites(lhs)
					}
				case *ast.IncDecStmt:
					markWrites(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markWrites(n.X)
					}
				case *ast.SelectorExpr:
					if sel := l.info.Selections[n]; sel != nil && sel.Kind() != types.FieldVal && types.IsInterface(sel.Recv()) {
						ifaceSelections = append(ifaceSelections, sel.Obj().(*types.Func))
					}
				}
				return true
			})
		}
	}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			continue // fields count only when written
		}
		if _, ok := declared[obj]; !ok {
			continue
		}
		inOwn := false
		for _, s := range own[obj] {
			inOwn = inOwn || s.pos <= id.Pos() && id.Pos() < s.end
		}
		used[obj] = used[obj] || !inOwn
	}
	for obj := range declared {
		m, ok := obj.(*types.Func)
		if !ok || used[m] || m.Type().(*types.Signature).Recv() == nil {
			continue
		}
		for _, im := range ifaceSelections {
			if im.Name() == m.Name() && types.Identical(im.Type(), m.Type()) {
				used[m] = true
				break
			}
		}
	}

	var unused []string
	found := map[string]bool{}
	for obj, key := range declared {
		found[key] = true
		_, allowed := testOnlyAllowed[key]
		switch {
		case !used[obj] && !allowed:
			unused = append(unused, key+" ("+fset.Position(obj.Pos()).String()+")")
		case used[obj] && allowed:
			t.Errorf("%s now has a non-test use; drop it from testOnlyAllowed", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but used only by tests: %s", u)
	}
	for key := range testOnlyAllowed {
		if !found[key] {
			t.Errorf("testOnlyAllowed names %s, which is not an exported declaration under internal/", key)
		}
	}
}

// loader type-checks the repository's non-test files package by package,
// on demand, and the standard library from its export data.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info // shared by every package
}

func (l *loader) Import(ip string) (*types.Package, error) {
	files, ok := l.files[ip]
	if !ok {
		return l.std.Import(ip)
	}
	if p := l.pkgs[ip]; p != nil {
		return p, nil
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(ip, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[ip] = p
	return p, nil
}

// stdImporter returns an importer for the packages outside the repository
// that the given files import (the standard library), reading the export
// data that one batched `go list -export -deps` call locates, where the gc
// importer's default lookup starts a go command per package.
func stdImporter(fset *token.FileSet, files map[string][]*ast.File) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	seen := map[string]bool{}
	for _, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if _, local := files[ip]; !local && !seen[ip] {
					seen[ip] = true
					args = append(args, ip)
				}
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, "=")
		exports[ip] = file
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file := exports[ip]
		if file == "" {
			return nil, fmt.Errorf("go list -export located no export data for %q", ip)
		}
		return os.Open(file)
	}), nil
}

// receiver returns the type named by a method receiver expression.
func (l *loader) receiver(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return l.info.Uses[x]
		default:
			return nil
		}
	}
}

// facadeAllowed lists the exported names of the root package that no
// program under examples/ and no godoc Example function uses but that
// stay anyway, each with the reason (DESIGN.md decision 13).
var facadeAllowed = map[string]string{
	"Env":   "a user writing a Process implements Step(*Env, Message)",
	"Graph": "BuildGraph's result type, named by a user who hands a graph to their own code",
}

// TestFacadeExportsUsed fails when an exported name declared in a non-test
// file of the root package is used neither by a program under examples/
// nor by a godoc Example function of the external test package, and when
// a facadeAllowed entry gains such a use or names no declaration. A use
// is a selector on the file's import of the root package; an Example
// function also uses the name it documents (ExampleModel_RunVerified uses
// Model). The root package's own files and tests do not count, so an
// alias cannot keep itself, or the internal code behind it, alive.
func TestFacadeExportsUsed(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{}
	used := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		p := e.Name()
		if e.IsDir() || !strings.HasSuffix(p, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(p, "_test.go") {
			for _, id := range exportedDecls(f) {
				declared[id.Name] = fset.Position(id.Pos())
			}
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				target, _, _ := strings.Cut(strings.TrimPrefix(fd.Name.Name, "Example"), "_")
				used[target] = true
				facadeRefs(f, fd, used)
			}
		}
	}
	err = filepath.WalkDir("examples", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		facadeRefs(f, f, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for name, pos := range declared {
		_, allowed := facadeAllowed[name]
		switch {
		case !used[name] && !allowed:
			unused = append(unused, name+" ("+pos.String()+")")
		case used[name] && allowed:
			t.Errorf("facade name %s now has a user; drop it from facadeAllowed", name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("facade name used by no example: %s", u)
	}
	for name := range facadeAllowed {
		if _, ok := declared[name]; !ok {
			t.Errorf("facadeAllowed names %s, which the root package does not export", name)
		}
	}
}

// exportedDecls returns the identifiers of f's exported package-level
// types, variables, constants and functions.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	add := func(id *ast.Ident) {
		if id.IsExported() {
			ids = append(ids, id)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return ids
}

// facadeRefs marks every name that n selects from f's import of the root
// package.
func facadeRefs(f *ast.File, n ast.Node, used map[string]bool) {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		if ip, _ := strconv.Unquote(imp.Path.Value); ip == "repro" {
			name := "repro"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names[name] = true
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && names[x.Name] {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
}
