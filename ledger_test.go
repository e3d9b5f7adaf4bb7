package cqjoin_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scripts/traffic-cover.keep is the ledger scripts/traffic-cover.sh holds its
// coverage run to. Each line names a function or file that no gated workload
// runs and the test or example that exercises it: "path[:Func]  Keeper", Func
// being Type.Method for a method. The coverage run takes minutes, so a
// renamed function, test or example would leave the ledger stale until its
// next run; this checks every line against the tree instead.
func TestTrafficCoverLedger(t *testing.T) {
	tests := testFuncs(t)
	f, err := os.Open("scripts/traffic-cover.keep")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	declared := map[string]map[string]bool{} // file -> its functions
	lines := 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		lines++
		if len(fields) != 2 {
			t.Errorf("line %d: %q is not \"path[:Func]  Keeper\"", n, line)
			continue
		}
		path, fn, _ := strings.Cut(fields[0], ":")
		info, err := os.Stat(path)
		switch {
		case err != nil:
			t.Errorf("line %d: %v", n, err)
		case fn != "" && info.IsDir():
			t.Errorf("line %d: %s is a directory, so it declares no %s", n, path, fn)
		case fn != "":
			if declared[path] == nil {
				declared[path] = funcsOf(t, path)
			}
			if !declared[path][fn] {
				t.Errorf("line %d: %s declares no %s", n, path, fn)
			}
		}
		keeper := fields[1]
		if dir, ok := strings.CutPrefix(keeper, "examples/"); ok {
			if info, err := os.Stat(filepath.Join("examples", dir)); err != nil || !info.IsDir() {
				t.Errorf("line %d: no example %s", n, keeper)
			}
		} else if !tests[keeper] {
			t.Errorf("line %d: no _test.go defines %s", n, keeper)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("the ledger names nothing")
	}
}

// funcsOf returns the functions path declares, a method as Type.Method.
func funcsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch g := typ.(type) {
			case *ast.IndexExpr:
				typ = g.X
			case *ast.IndexListExpr:
				typ = g.X
			}
			name = typ.(*ast.Ident).Name + "." + name
		}
		out[name] = true
	}
	return out
}

// testFuncs returns the top-level Test, Example and Fuzz functions the
// module's _test.go files define.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				if name := fd.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Example") || strings.HasPrefix(name, "Fuzz") {
					out[name] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
