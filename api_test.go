package abc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"causality.Builder.Consumed":             "one-line accessor",
	"causality.Graph.CausalCone":             "cut-by-cut reference of TestCutSynchronyMatchesReference for the one-pass Theorem 2 check",
	"causality.Graph.CutAtTime":              "cut-by-cut reference of TestCutSynchronyMatchesReference for the one-pass Theorem 2 check",
	"causality.Cut.Frontier":                 "reads C_p(S) off the reference cuts of TestCutSynchronyMatchesReference",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is referenced by no non-test file of
// the repository (bench/ included), and when an allowlist entry gains a
// caller or no longer exists. Package-level functions are matched by
// import path and name; methods by name alone, since resolving receiver
// types needs a type checker, so a method counts as used when any
// non-test selector names it.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key, pkg, name string
		method         bool
		pos            token.Position
	}
	var decls []decl
	funcRefs := map[string]bool{}  // "importpath.Name"
	selectors := map[string]bool{} // every selector name, for methods

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
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name] = true
						return false
					}
				}
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
