package dlinfma

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The documents whose names the code holds, and the ones that quote
// DESIGN.md's sections or could carry a file.go:N reference.
var (
	citingDocs   = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	quotingDocs  = []string{"README.md", "ROADMAP.md", "EXPERIMENTS.md"}
	lineRefDocs  = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}
	registerFns  = map[string]bool{"Counter": true, "CounterVec": true, "Gauge": true, "GaugeVec": true, "HDRHistogram": true, "HDRHistogramVec": true}
	fileExts     = map[string]bool{"go": true, "s": true, "md": true, "json": true, "gz": true, "sh": true, "txt": true, "log": true, "mod": true, "yml": true}
	familyRE     = regexp.MustCompile(`^dlinfma_[a-z0-9_]*[a-z0-9]$`)
	typeLineRE   = regexp.MustCompile(`# TYPE (dlinfma_[a-z0-9_]+) `)
	snakeRE      = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)
	citeRE       = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(.*)$`)
	spanRE       = regexp.MustCompile("`([^`]+)`")
	testRE       = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Z0-9]\w*)(?:$|[/ ])`)
	fenceRE      = regexp.MustCompile("(?ms)^```.*?^```")
	lineRefRE    = regexp.MustCompile(`[\w./-]+\.(?:go|s|sh):\d+`)
	quoteRE      = regexp.MustCompile(`DESIGN\.md(?:'s)? "([^"]+)"`)
	historyRE    = regexp.MustCompile(`\bPRs? \d+`)
	fuzzLineRE   = regexp.MustCompile(`\$\(GO\) test (\S+) .*-fuzz '\^(Fuzz\w+)\$\$'`)
	fuzzTableRE  = regexp.MustCompile(`^#\s+(Fuzz\w+)\s`)
	headingRE    = regexp.MustCompile(`^#+\s+(.+?)\s*$`)
	leadRE       = regexp.MustCompile(`^\*\*?([^*]+)\*`)
	metricCellRE = regexp.MustCompile("`(_?[a-z0-9_]+)`")
)

// srcIndex is what the documents are checked against, read from the Go
// source of both modules with go/parser alone.
type srcIndex struct {
	decls    map[string]map[string]bool // package name -> top-level names (test files included)
	members  map[string]map[string]bool // "Type" and "pkg.Type" -> methods and fields
	strs     map[string]bool            // every string literal, both modules
	std      map[string]string          // standard-library package name -> import path, as imported
	families map[string]bool            // dlinfma_* families the root module registers or exposes
	flags    map[string]bool            // dlinfma serve's flags
	routes   map[string]bool            // "METHOD pattern" mounted by deploy.NewService
	fuzz     map[string]string          // Fuzz* target -> its package directory
	fset     *token.FileSet
	stdDone  map[string]bool
}

func indexSource(t *testing.T) *srcIndex {
	t.Helper()
	x := &srcIndex{
		decls: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		strs: map[string]bool{}, std: map[string]string{}, families: map[string]bool{},
		flags: map[string]bool{}, routes: map[string]bool{}, fuzz: map[string]string{},
		fset: token.NewFileSet(), stdDone: map[string]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(x.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		x.addFile(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func (x *srcIndex) addFile(path string, f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	dir := filepath.ToSlash(filepath.Dir(path))
	isTest := strings.HasSuffix(path, "_test.go")
	rootModule := !strings.HasPrefix(path, "bench/")
	x.addDecls(pkg, f)
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(p, "dlinfma") {
			x.std[p[strings.LastIndex(p, "/")+1:]] = p
		}
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if isTest && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
			x.fuzz[fn.Name.Name] = dir
		}
		switch {
		case !isTest && pkg == "main" && dir == "cmd/dlinfma" && (fn.Name.Name == "cmdServe" || fn.Name.Name == "shardFlags"):
			x.addFlags(fn)
		case !isTest && pkg == "deploy" && fn.Name.Name == "NewService":
			x.addRoutes(fn)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				s, _ := strconv.Unquote(n.Value)
				x.strs[s] = true
				if rootModule && !isTest {
					for _, m := range typeLineRE.FindAllStringSubmatch(s, -1) {
						x.families[m[1]] = true
					}
				}
			}
		case *ast.CallExpr:
			// A registry constructor's first argument names a family.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && registerFns[sel.Sel.Name] && len(n.Args) > 0 && rootModule && !isTest {
				if s, ok := stringLit(n.Args[0]); ok && familyRE.MatchString(s) {
					x.families[s] = true
				}
			}
		case *ast.CompositeLit:
			// So does a dlinfma_* string in a table an exposer writes from.
			if rootModule && !isTest {
				for _, e := range n.Elts {
					if s, ok := stringLit(e); ok && familyRE.MatchString(s) {
						x.families[s] = true
					}
				}
			}
		}
		return true
	})
}

// addDecls records a file's top-level names, and each type's methods,
// struct fields and interface methods.
func (x *srcIndex) addDecls(pkg string, f *ast.File) {
	if x.decls[pkg] == nil {
		x.decls[pkg] = map[string]bool{}
	}
	member := func(typ, name string) {
		for _, k := range []string{typ, pkg + "." + typ} {
			if x.members[k] == nil {
				x.members[k] = map[string]bool{}
			}
			x.members[k][name] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				x.decls[pkg][d.Name.Name] = true
			} else if len(d.Recv.List) > 0 {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						x.decls[pkg][id.Name] = true
					}
				case *ast.TypeSpec:
					x.decls[pkg][sp.Name.Name] = true
					var fields []*ast.Field
					switch tt := sp.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields.List
					case *ast.InterfaceType:
						fields = tt.Methods.List
					}
					for _, fl := range fields {
						if len(fl.Names) == 0 {
							member(sp.Name.Name, typeName(fl.Type))
						}
						for _, id := range fl.Names {
							member(sp.Name.Name, id.Name)
						}
					}
				}
			}
		}
	}
}

// typeName is the bare name of a receiver or embedded type: T for T, *T,
// T[P] and pkg.T.
func typeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// addFlags records the fs.<Kind>("name", ...) flags a function defines.
func (x *srcIndex) addFlags(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "fs" {
			if s, ok := stringLit(call.Args[0]); ok {
				x.flags[s] = true
			}
		}
		return true
	})
}

// addRoutes records NewService's handle(pattern, route, methodsOnly(h,
// http.MethodX...)) mounts; "/" is the catch-all, not a route.
func (x *srcIndex) addRoutes(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 3 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "handle" {
			return true
		}
		pattern, ok := stringLit(call.Args[0])
		mo, isCall := call.Args[2].(*ast.CallExpr)
		if !ok || pattern == "/" || !isCall {
			return true
		}
		for _, a := range mo.Args[1:] {
			if sel, ok := a.(*ast.SelectorExpr); ok {
				x.routes[strings.ToUpper(strings.TrimPrefix(sel.Sel.Name, "Method"))+" "+pattern] = true
			}
		}
		return true
	})
}

// stdDecls parses a standard-library package the code imports into the
// index, once.
func (x *srcIndex) stdDecls(name string) bool {
	path, ok := x.std[name]
	if !ok {
		return false
	}
	if x.stdDone[path] {
		return true
	}
	x.stdDone[path] = true
	p, err := build.Default.Import(path, "", 0)
	if err != nil {
		return false
	}
	for _, file := range p.GoFiles {
		f, err := parser.ParseFile(x.fset, filepath.Join(p.Dir, file), nil, parser.SkipObjectResolution)
		if err != nil {
			return false
		}
		x.addDecls(name, f)
	}
	return true
}

// resolve says why a backticked dotted name does not name anything, or "".
// The first component is a module package, a type declared in either
// module, or a standard-library package the code imports; a lower-case
// snake_case name (a trace span, a benchmark-ladder layer) must be a string
// literal of either module.
func (x *srcIndex) resolve(cite string) string {
	parts := strings.Split(cite, ".")
	if fileExts[parts[len(parts)-1]] {
		return ""
	}
	if snakeRE.MatchString(cite) && x.strs[cite] {
		return ""
	}
	first, name := parts[0], parts[1]
	switch {
	case x.decls[first] != nil && first != "main" || x.stdDecls(first):
		if !x.decls[first][name] {
			if snakeRE.MatchString(cite) {
				return fmt.Sprintf("package %s declares no %s, and no Go file has the span or ladder name as a string literal", first, name)
			}
			return fmt.Sprintf("package %s declares no %s", first, name)
		}
		if len(parts) > 2 && !x.members[first+"."+name][parts[2]] {
			return fmt.Sprintf("%s.%s has no method or field %s", first, name, parts[2])
		}
		return ""
	case x.members[first] != nil:
		if !x.members[first][name] {
			return fmt.Sprintf("type %s has no method or field %s", first, name)
		}
		return ""
	case snakeRE.MatchString(cite):
		return "no Go file has it as a string literal"
	}
	return fmt.Sprintf("%s is neither a package nor a type of either module, nor an imported standard-library package", first)
}

// anyDecl reports whether any package declares name at top level.
func (x *srcIndex) anyDecl(name string) bool {
	for _, names := range x.decls {
		if names[name] {
			return true
		}
	}
	return false
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// codeSpans are a document's inline code spans, fenced blocks left out.
func codeSpans(doc string) []string {
	var out []string
	for _, m := range spanRE.FindAllStringSubmatch(fenceRE.ReplaceAllString(doc, ""), -1) {
		out = append(out, strings.Join(strings.Fields(m[1]), " "))
	}
	return out
}

// TestDocsCiteLiveNames holds README.md, DESIGN.md and EXPERIMENTS.md to the
// tree: every backticked pkg.Name (Type.Member, pkg.Type.Member) and
// Test*, Benchmark* or Fuzz* name is declared, every backticked dlinfma_*
// family is registered, README's
// metric tables, serve flags and endpoint table are exactly the code's, no
// document cites a file.go:N line, every DESIGN.md section another document
// quotes exists, DESIGN.md names no PR (its history is CHANGES.md's), and
// every fuzz target is run by make fuzz-smoke and listed in the Makefile's
// table.
func TestDocsCiteLiveNames(t *testing.T) {
	x := indexSource(t)
	docs := map[string]string{}
	for _, name := range append(append([]string{}, citingDocs...), "ROADMAP.md") {
		docs[name] = readDoc(t, name)
	}

	t.Run("names", func(t *testing.T) {
		for _, doc := range citingDocs {
			seen := map[string]bool{}
			for _, span := range codeSpans(docs[doc]) {
				if m := testRE.FindStringSubmatch(span); m != nil && !seen[m[1]] {
					seen[m[1]] = true
					if !x.anyDecl(m[1]) {
						t.Errorf("%s: `%s` is declared in no package of either module", doc, m[1])
					}
					continue
				}
				m := citeRE.FindStringSubmatch(span)
				if m == nil || m[2] != "" && m[2][0] != '(' && m[2][0] != '[' || seen[m[1]] {
					continue
				}
				seen[m[1]] = true
				if why := x.resolve(m[1]); why != "" {
					t.Errorf("%s: `%s` does not resolve: %s", doc, m[1], why)
				}
			}
		}
	})

	t.Run("families", func(t *testing.T) {
		for _, doc := range citingDocs {
			for _, span := range codeSpans(docs[doc]) {
				name := span
				if i := strings.IndexAny(name, "{ "); i >= 0 {
					name = name[:i]
				}
				if !familyRE.MatchString(name) || x.families[name] || x.families[strings.Replace(name, "dlinfma_peer_", "dlinfma_", 1)] {
					continue
				}
				if base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count"); base != name && x.families[base] {
					continue
				}
				t.Errorf("%s: `%s` is not a family the code registers", doc, name)
			}
		}
		tabled := readmeFamilies(docs["README.md"])
		for _, f := range sortedKeys(tabled) {
			if !x.families[f] {
				t.Errorf("README.md: metrics table lists %s, which the code does not register", f)
			}
		}
		for _, f := range sortedKeys(x.families) {
			if !tabled[f] {
				t.Errorf("README.md: the code registers %s, which no metrics table lists", f)
			}
		}
	})

	t.Run("flags", func(t *testing.T) {
		listed := map[string]bool{}
		for _, line := range strings.Split(section(docs["README.md"], "### Serving"), "\n") {
			if strings.HasPrefix(line, "- `-") {
				listed[strings.TrimPrefix(line[3:strings.Index(line[3:], "`")+3], "-")] = true
			}
		}
		compareSets(t, "README.md", "serve flag", listed, x.flags, "cmd/dlinfma (cmdServe, shardFlags)")
	})

	t.Run("endpoints", func(t *testing.T) {
		listed := map[string]bool{}
		for _, line := range strings.Split(section(docs["README.md"], "### Serving"), "\n") {
			if strings.HasPrefix(line, "| `GET ") || strings.HasPrefix(line, "| `POST ") {
				listed[line[3:strings.Index(line[3:], "`")+3]] = true
			}
		}
		compareSets(t, "README.md", "endpoint", listed, x.routes, "deploy.NewService")
	})

	t.Run("line references", func(t *testing.T) {
		for _, doc := range lineRefDocs {
			for _, ref := range lineRefRE.FindAllString(docs[doc], -1) {
				t.Errorf("%s: line reference %s: cite the symbol instead", doc, ref)
			}
		}
	})

	t.Run("DESIGN.md history", func(t *testing.T) {
		for _, m := range historyRE.FindAllString(docs["DESIGN.md"], -1) {
			t.Errorf("DESIGN.md: %q is per-PR history, which belongs in CHANGES.md", m)
		}
	})

	t.Run("DESIGN.md sections", func(t *testing.T) {
		known := designSections(docs["DESIGN.md"])
		for _, doc := range quotingDocs {
			text := strings.Join(strings.Fields(spanRE.ReplaceAllString(fenceRE.ReplaceAllString(docs[doc], ""), "")), " ")
			for _, m := range quoteRE.FindAllStringSubmatch(text, -1) {
				if !known[m[1]] {
					t.Errorf("%s: quotes DESIGN.md %q, which is no heading or paragraph lead of DESIGN.md", doc, m[1])
				}
			}
		}
	})

	t.Run("fuzz targets", func(t *testing.T) {
		mk := readDoc(t, "Makefile")
		smoke, tabled := map[string]string{}, map[string]bool{}
		for _, line := range strings.Split(mk, "\n") {
			if m := fuzzLineRE.FindStringSubmatch(line); m != nil {
				smoke[m[2]] = strings.TrimPrefix(m[1], "./")
			}
			if m := fuzzTableRE.FindStringSubmatch(line); m != nil {
				tabled[m[1]] = true
			}
		}
		for _, name := range sortedKeys(x.fuzz) {
			if dir, ok := smoke[name]; !ok {
				t.Errorf("Makefile: fuzz-smoke does not run %s (%s)", name, x.fuzz[name])
			} else if dir != x.fuzz[name] {
				t.Errorf("Makefile: fuzz-smoke runs %s in ./%s; it is declared in %s", name, dir, x.fuzz[name])
			}
			if !tabled[name] {
				t.Errorf("Makefile: the fuzz-smoke comment table has no row for %s", name)
			}
		}
		for _, name := range sortedKeys(smoke) {
			if _, ok := x.fuzz[name]; !ok {
				t.Errorf("Makefile: fuzz-smoke runs %s, which no test file declares", name)
			}
		}
		for _, name := range sortedKeys(tabled) {
			if _, ok := x.fuzz[name]; !ok {
				t.Errorf("Makefile: the fuzz-smoke comment table lists %s, which no test file declares", name)
			}
		}
	})
}

// readmeFamilies are the families README's metrics tables list: each row's
// first cell, where `_rest` stands for the row's first family's
// dlinfma_<subsystem> prefix followed by _rest.
func readmeFamilies(readme string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "| `dlinfma_") {
			continue
		}
		cell := strings.Split(line, "|")[1]
		prefix := ""
		for _, m := range metricCellRE.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			if prefix == "" {
				parts := strings.SplitN(name, "_", 3)
				prefix = parts[0] + "_" + parts[1]
			} else if strings.HasPrefix(name, "_") {
				name = prefix + name
			}
			out[name] = true
		}
	}
	return out
}

// section is the part of doc from the heading to the next heading of the
// same or a higher level.
func section(doc, heading string) string {
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		return ""
	}
	rest := doc[i+len(heading)+2:]
	level := strings.Repeat("#", strings.Count(strings.Fields(heading)[0], "#"))
	for _, line := range strings.Split(rest, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.Trim(f[0], "#") == "" && len(f[0]) <= len(level) {
			return rest[:strings.Index(rest, line)]
		}
	}
	return rest
}

// designSections are DESIGN.md's headings and the emphasised leads of its
// paragraphs and list items, each also without its trailing period and
// cut at a colon or an opening parenthesis.
func designSections(doc string) map[string]bool {
	out := map[string]bool{}
	add := func(s string) {
		s = strings.TrimSpace(s)
		out[s] = true
		out[strings.TrimSuffix(s, ".")] = true
		if i := strings.IndexAny(s, ":("); i > 0 {
			out[strings.TrimSpace(s[:i])] = true
		}
	}
	for _, line := range strings.Split(fenceRE.ReplaceAllString(doc, ""), "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "- ")
		if m := headingRE.FindStringSubmatch(line); m != nil {
			add(m[1])
		} else if m := leadRE.FindStringSubmatch(line); m != nil {
			add(m[1])
		}
	}
	return out
}

func compareSets(t *testing.T, doc, what string, listed, code map[string]bool, source string) {
	t.Helper()
	for _, k := range sortedKeys(listed) {
		if !code[k] {
			t.Errorf("%s: lists %s %q, which %s does not have", doc, what, k, source)
		}
	}
	for _, k := range sortedKeys(code) {
		if !listed[k] {
			t.Errorf("%s: does not list %s %q, which %s has", doc, what, k, source)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
