package dqm

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported declarations under internal/ that no
// non-test code uses but that a test of another package or a pinned
// benchmark needs, keyed package.Name or package.Type.Method, each with what
// needs it.
var testOnlyExports = map[string]string{
	"estimator.NewSwitch":                        "BenchmarkSwitchEstimate, BenchmarkBootstrapSwitchCI; internal/window diffSwitch",
	"estimator.SwitchEstimator.Tracker":          "internal/window diffSwitch: the per-item state of recycled panes, which keep no ledgers to capture",
	"similarity.TokenSortedEditSimilarity":       "BenchmarkTokenSortedEditSimilarity; internal/pipeline TestRestaurantCandidatesClassifiesEveryDuplicate",
	"stats.NewFreqFromCounts":                    "internal/votes, internal/switchstat and internal/estimator fingerprint oracles",
	"switchstat.Tracker.FingerprintPositiveView": "internal/estimator TestSuiteWidensPastNarrowVotes",
	"switchstat.Tracker.FingerprintNegativeView": "internal/estimator TestSuiteWidensPastNarrowVotes",
	"votelog.AppendBinaryVote":                   "internal/engine BenchmarkColumnarIngest, BenchmarkAppendLog; cmd/dqm-serve TestDQMVIngestValidation",
	"votelog.BinaryMagic":                        "cmd/dqm-serve TestVotesContentTypeDispatch",
	"votes.Rows.Bits":                            "BenchmarkAdd8Bit, BenchmarkAdd16Bit, BenchmarkWideAdd",
	"votes.Matrix.Neg":                           "internal/estimator TestSuiteWidensPastNarrowVotes; internal/switchstat TestTrackerWidensPastNarrowVotes",
	"votes.Matrix.DirtyFingerprintView":          "internal/estimator TestSuiteWidensPastNarrowVotes; internal/switchstat TestTrackerWidensPastNarrowVotes",
}

// interfaceMethods are the method names the standard library calls through
// an interface (fmt, errors, net/http, encoding/json, sort), so no non-test
// code needs to use them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true, "Format": true,
}

// TestNoTestOnlyExports type-checks every non-test package of the module
// (bench/, a module of its own, excluded) and fails when an exported func,
// type, const or var, or an exported method, declared under internal/ is
// used by no non-test code: only tests reach it, so it goes or is listed in
// testOnlyExports. Uses are resolved by go/types, not matched by name, so
// non-test code that uses the same name for something else does not hide
// a test-only export, and a declaration's use of itself (recursion, a method
// receiver) does not count. A method also counts as used when its receiver
// implements an interface of the module that has the method, or when its
// name is in interfaceMethods.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, ".", "dqm")
	if err != nil {
		t.Fatal(err)
	}
	used, err := checkModule(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}

	var ifaces []*types.Interface
	for _, p := range pkgs {
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	implemented := func(m *types.Func, recv types.Type) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	listed := map[string]bool{}
	report := func(key string, obj types.Object) {
		if _, ok := testOnlyExports[key]; ok {
			listed[key] = true
			return
		}
		t.Errorf("%s: no non-test code uses %s: delete it, or list it in testOnlyExports with the test that needs it",
			fset.Position(obj.Pos()), key)
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "dqm/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(p.types.Name()+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || interfaceMethods[m.Name()] {
					continue
				}
				if named.TypeParams() == nil && implemented(m, named) {
					continue
				}
				report(p.types.Name()+"."+name+"."+m.Name(), m)
			}
		}
	}
	for key := range testOnlyExports {
		if !listed[key] {
			t.Errorf("testOnlyExports lists %s, which is gone or used by non-test code now", key)
		}
	}
}

// modulePkg is one non-test package of the module, parsed and, once
// checkModule reaches it, type-checked.
type modulePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// parseModule parses the non-test Go files under root, one modulePkg per
// directory, skipping bench/, testdata and hidden directories.
func parseModule(fset *token.FileSet, root, module string) (map[string]*modulePkg, error) {
	pkgs := map[string]*modulePkg{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (p == filepath.Join(root, "bench") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		importPath := path.Join(module, filepath.ToSlash(rel))
		if pkgs[importPath] == nil {
			pkgs[importPath] = &modulePkg{path: importPath}
		}
		pkgs[importPath].files = append(pkgs[importPath].files, f)
		return nil
	})
	return pkgs, err
}

// checkModule type-checks every package in pkgs, importing the standard
// library from compiler export data, and returns the objects that non-test
// code uses, each method or field by its generic origin. A use inside the
// declaration of the object itself does not count.
func checkModule(fset *token.FileSet, pkgs map[string]*modulePkg) (map[types.Object]bool, error) {
	std := importer.ForCompiler(fset, "gc", nil)
	var check func(p *modulePkg) error
	imp := importerFunc(func(ip string) (*types.Package, error) {
		p, ok := pkgs[ip]
		if !ok {
			return std.Import(ip)
		}
		if p.types == nil {
			if err := check(p); err != nil {
				return nil, err
			}
		}
		return p.types, nil
	})
	check = func(p *modulePkg) error {
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		var err error
		p.types, err = (&types.Config{Importer: imp}).Check(p.path, fset, p.files, p.info)
		return err
	}
	paths := make([]string, 0, len(pkgs))
	for ip := range pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	used := map[types.Object]bool{}
	for _, ip := range paths {
		p := pkgs[ip]
		if _, err := imp(ip); err != nil {
			return nil, err
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				collectUses(decl, p.info, used)
			}
		}
	}
	return used, nil
}

// collectUses adds to used every object an identifier in decl uses, except
// the object each spec or func of decl declares and a method's receiver
// type.
func collectUses(decl ast.Decl, info *types.Info, used map[types.Object]bool) {
	add := func(n ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil && !self[obj] {
				used[obj] = true
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := map[types.Object]bool{info.Defs[d.Name]: true}
		add(d.Type, self)
		if d.Body != nil {
			add(d.Body, self)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			self := map[types.Object]bool{}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, name := range s.Names {
					self[info.Defs[name]] = true
				}
			}
			add(spec, self)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
