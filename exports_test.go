package dqm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyExports lists the exported funcs and methods under internal/ that
// no non-test file names but that a test of another package or a pinned
// benchmark needs, keyed package.Func or package.Type.Method, each with what
// needs it.
var testOnlyExports = map[string]string{
	"estimator.NewSwitch":                        "BenchmarkSwitchEstimate, BenchmarkBootstrapSwitchCI; internal/window diffTrackers",
	"estimator.SwitchEstimator.BootstrapSwitch":  "BenchmarkBootstrapSwitchCI",
	"similarity.TokenSortedEditSimilarity":       "BenchmarkTokenSortedEditSimilarity; internal/pipeline TestRestaurantCandidatesClassifiesEveryDuplicate",
	"stats.NewFreqFromCounts":                    "internal/votes, internal/switchstat and internal/estimator fingerprint oracles",
	"switchstat.Tracker.NoOps":                   "internal/window diffTrackers",
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
// file needs to name them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true, "Format": true,
}

// TestNoTestOnlyExports parses every non-test Go file of the module (bench/,
// a module of its own, excluded) and fails when an exported func or method
// declared under internal/ is named by none of them: only tests reach it, so
// it goes, moves into a _test.go file, or is listed in testOnlyExports. The
// match is by name, so a call through an interface counts as a use.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]bool{}
	type export struct{ key, pos string }
	var exports []export
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if strings.HasPrefix(filepath.ToSlash(path), "internal/") && fd.Name.IsExported() && !interfaceMethods[fd.Name.Name] {
				exports = append(exports, export{exportKey(f.Name.Name, fd), fset.Position(fd.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, e := range exports {
		if named[e.key[strings.LastIndexByte(e.key, '.')+1:]] {
			continue
		}
		if _, ok := testOnlyExports[e.key]; ok {
			listed[e.key] = true
			continue
		}
		t.Errorf("%s: no non-test file names %s: delete it, move it into a _test.go file, or list it in testOnlyExports with the test that needs it",
			e.pos, e.key)
	}
	for key := range testOnlyExports {
		if !listed[key] {
			t.Errorf("testOnlyExports lists %s, which is gone or named by non-test code now", key)
		}
	}
}

// exportKey returns package.Func or package.Type.Method for fd.
func exportKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}
