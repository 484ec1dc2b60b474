package abc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported functions and methods under internal/
// that no production file calls but that stay anyway, each with the reason.
// Keys are "pkg.Func" or "pkg.Type.Method". Everything else exported must
// have a non-test caller: an export that only tests reach is either wired
// into the experiment that owns its claim or deleted (DESIGN.md decision
// 13).
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
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is referenced by no non-test file of
// the repository (bench/ included), and when an allowlist entry gains a
// caller or no longer exists. Package-level functions are matched by
// import path and name; methods by name alone, since resolving receiver
// types needs a type checker, so a method counts as used when any
// non-test selector on a value (not on an imported package) names it.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key, pkg, name string
		method         bool
		pos            token.Position
	}
	var decls []decl
	funcRefs := map[string]bool{}  // "importpath.Name"
	selectors := map[string]bool{} // selector names on values, for methods

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
		dir := filepath.ToSlash(filepath.Dir(p))
		self := "repro/" + dir // import path of internal/ packages; a unique key elsewhere
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			pkg := path.Base(dir)
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := receiverType(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue // reachable only through an interface or its package
				}
				key = pkg + "." + recv + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, self, fd.Name.Name, fd.Recv != nil, fset.Position(fd.Pos())})
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name] = true
						return false
					}
				}
				selectors[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false // n.Sel names a field or method, not a package-level func
			case *ast.Ident:
				if !declNames[n] {
					funcRefs[self+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	found := map[string]bool{}
	var unused []string
	for _, d := range decls {
		found[d.key] = true
		used := funcRefs[d.pkg+"."+d.name]
		if d.method {
			used = selectors[d.name]
		}
		_, allowed := testOnlyAllowed[d.key]
		switch {
		case !used && !allowed:
			unused = append(unused, d.key+" ("+d.pos.String()+")")
		case used && allowed:
			t.Errorf("%s now has a non-test caller; drop it from testOnlyAllowed", d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced only by tests: %s", u)
	}
	for key := range testOnlyAllowed {
		if !found[key] {
			t.Errorf("testOnlyAllowed names %s, which is not an exported declaration under internal/", key)
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

// receiverType returns the type name of a method receiver expression.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
