package dlinfma

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported declarations kept without a non-test
// caller, each with the ROADMAP reason it stays.
var exportAllowlist = map[string]string{
	"internal/eval.BootstrapCI":        "ROADMAP item 2 (c): the confidence interval the paper-side tables will report",
	"internal/eval.ShardEquivalence":   "ROADMAP item 17: the sharded-vs-global measurement",
	"internal/eval.ZoneAlignedProfile": "ROADMAP item 17: the zone-aligned profile that measurement runs on",
	"internal/core.LocMatcher.Explain": "ROADMAP item 20: per-candidate attention for the explanation endpoint",
	"internal/peer.Client.Endpoint":    "reached through Engine.Status's interface{ Endpoint() string } assertion",
}

// TestExportedNamesHaveCallers type-checks both modules (the root one and
// bench/) and fails on any exported package-level name or method declared in
// a non-test file of cmd/, examples/ or internal/ that no non-test file of
// either module uses. A method that implements a method of a named interface
// is reached through that interface and is not reported.
func TestExportedNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library from source")
	}
	orphans, err := orphanedExports()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	found := map[string]bool{}
	for _, name := range orphans {
		found[name] = true
		if _, ok := exportAllowlist[name]; !ok {
			bad = append(bad, name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d exported names have no non-test caller (delete them or give each a production caller):\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	for name := range exportAllowlist {
		if !found[name] {
			t.Errorf("allowlisted %s now has a caller or is gone: drop it from exportAllowlist", name)
		}
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

type checkedPackage struct {
	rel   string // import path without the module's "dlinfma/"
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// exportScan type-checks the listed packages on demand, in import order, so
// every package sees the same objects for what it imports; the standard
// library comes from the source importer.
type exportScan struct {
	fset    *token.FileSet
	std     types.Importer
	listed  map[string]listedPackage
	checked map[string]*checkedPackage
	order   []*checkedPackage
}

func orphanedExports() ([]string, error) {
	s := &exportScan{
		fset:    token.NewFileSet(),
		listed:  map[string]listedPackage{},
		checked: map[string]*checkedPackage{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	for _, dir := range []string{".", "bench"} {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			s.listed[p.ImportPath] = p
		}
	}
	paths := make([]string, 0, len(s.listed))
	for path := range s.listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	for _, p := range s.order {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
	}
	ifaces := s.namedInterfaces()

	var orphans []string
	for _, p := range s.order {
		if !strings.HasPrefix(p.rel, "cmd/") && !strings.HasPrefix(p.rel, "examples/") && !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, id := range declaredNames(decl) {
					obj := p.info.Defs[id]
					if obj == nil || !obj.Exported() || used[obj] || implementsNamed(obj, ifaces) {
						continue
					}
					orphans = append(orphans, p.rel+"."+qualifiedName(obj))
				}
			}
		}
	}
	sort.Strings(orphans)
	return orphans, nil
}

func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p.types, nil
	}
	lp, ok := s.listed[path]
	if !ok {
		return s.std.Import(path)
	}
	p := &checkedPackage{
		rel: strings.TrimPrefix(path, "dlinfma/"),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	s.checked[path] = p
	s.order = append(s.order, p)
	return pkg, nil
}

// namedInterfaces returns error and every non-generic named interface
// declared at package level in the listed packages and everything they import.
func (s *exportScan) namedInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.order {
		walk(p.types)
	}
	return out
}

func declaredNames(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, sp.Name)
			case *ast.ValueSpec:
				ids = append(ids, sp.Names...)
			}
		}
		return ids
	}
	return nil
}

func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implementsNamed reports whether obj is a method that some named interface
// with a method of the same name is satisfied by.
func implementsNamed(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	named := receiverNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

func qualifiedName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if named := receiverNamed(fn); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}
