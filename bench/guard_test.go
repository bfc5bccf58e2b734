package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os/exec"
	"strings"
	"testing"
)

// The benchmark drives dqm-serve over HTTP and replays through the exported
// dqm package only, so refactors of internal packages and cmd/ never need
// to edit it. go list -deps necessarily contains dqm/internal/... (the dqm
// package is built on them), so the guard checks what this module's own
// packages import, tests included.
func TestBenchImportsOnlyStdAndDQM(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-test",
		"-f", `{{with .Module}}{{.Path}}{{end}}|{{.ImportPath}}|{{join .Imports " "}}`, ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.SplitN(line, "|", 3)
		if len(f) != 3 || f[0] != "dqmbench" {
			continue
		}
		checked++
		for _, imp := range strings.Fields(f[2]) {
			if strings.HasPrefix(imp, "dqm/internal/") || strings.HasPrefix(imp, "dqm/cmd/") {
				t.Errorf("%s imports %s: the benchmark may use only the HTTP API and package dqm", f[1], imp)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("go list reported no package of module dqmbench:\n%s", out)
	}
}

// The ROADMAP plans to change or delete these dqm methods; the benchmark
// must not call them, so that work lands without editing it. The check
// type-checks the package so that, say, bytes.Buffer.Reset is not flagged.
func TestBenchAvoidsMethodsSlatedForChange(t *testing.T) {
	banned := map[string]bool{"Record": true, "RecordVote": true, "EndTask": true, "Reset": true,
		"AppendStagedVotes": true, "StagedVotes": true, "Snapshot": true, "Restore": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["main"].Files {
		files = append(files, f)
	}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("dqmbench", fset, files, info); err != nil {
		t.Fatalf("type-checking the benchmark: %v", err)
	}
	calls := 0
	for sel, s := range info.Selections {
		if s.Kind() != types.MethodVal || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "dqm" {
			continue
		}
		calls++
		if banned[s.Obj().Name()] {
			t.Errorf("%s: calls dqm method %s", fset.Position(sel.Pos()), s.Obj().Name())
		}
	}
	if calls == 0 {
		t.Fatal("found no dqm method calls at all; the check is not looking at the right code")
	}
}
