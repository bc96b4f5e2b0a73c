package dnscentral_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestReachability is the reachability gate: every top-level declaration of
// product code (the root package, cmd/ and internal/) must be reachable from
// a command, or be named on unreachableAllowed with the reason it stays.
//
// Both modules are parsed and type-checked from source, the standard library
// included, so the gate needs no build cache and no download. The roots are
// main in every command (cmd/* and bench/dnsbench), plus every init and every
// package-level var of a package linked into one. From a root, every
// package-level object or method its declaration names is reachable, a
// method value or an instantiated generic's method included. A reachable
// named type keeps only those of its methods that reached code names, and
// those whose name is a method of some interface: one declared in our
// packages, one exported by a standard package they import, error, or
// Is/As/Unwrap, which errors calls through anonymous interfaces. Matching by
// name alone needs no call graph, so the gate may keep a dead method but
// never flags a live one.
// A parenthesized const block is one declaration, so an enum stays whole.
// examples/ are neither roots nor checked, and test files are not read:
// a declaration that only tests use is dead product code.
//
// The test also fails when an allowlist entry matches no unreachable
// declaration, because the code was deleted or became reachable. The list can
// only shrink.
func TestReachability(t *testing.T) {
	start := time.Now()
	l := newReachLoader(t, "bench", ".")
	units, reached := l.reach()

	matched := make(map[string]bool)
	dead, deadLines, allowedLines := 0, 0, 0
	for _, u := range units {
		if reached[u] || u.pkg.mod != l.rootMod {
			continue
		}
		if key := allowKey(u); key != "" {
			matched[key] = true
			allowedLines += u.lines
			continue
		}
		dead++
		deadLines += u.lines
		t.Errorf("%s: %s (%d lines) is reachable from no command: delete it, or allowlist it with a reason", u.pos, u.name, u.lines)
	}
	if dead > 0 {
		t.Errorf("%d unreachable declarations, %d lines", dead, deadLines)
	}
	keys := make([]string, 0, len(unreachableAllowed))
	for k := range unreachableAllowed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !matched[k] {
			t.Errorf("allowlist entry %s matches no unreachable declaration: it was deleted or became reachable, so remove the entry", k)
		}
	}
	t.Logf("%d declarations, %d reachable; %d allowlisted unreachable lines; %v",
		len(units), len(reached), allowedLines, time.Since(start).Round(time.Millisecond))
}

// TestReachabilityMethodRule runs the gate over testdata/reachfixture, whose
// command reaches a type with six methods: a dead one, one called only
// through a local interface, a String that only fmt calls, one used only as
// a method value, one of a generic type called through an instantiation,
// and one called only from the dead method. The gate must flag exactly the
// dead method and its callee.
func TestReachabilityMethodRule(t *testing.T) {
	l := newReachLoader(t, filepath.Join("testdata", "reachfixture"))
	units, reached := l.reach()
	var got []string
	for _, u := range units {
		if !reached[u] {
			got = append(got, u.name)
		}
	}
	sort.Strings(got)
	want := []string{"reachfixture.Thing.Callee", "reachfixture.Thing.Dead"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unreachable declarations = %v, want %v", got, want)
	}
}

// reach walks from the roots and returns every declaration of the loaded
// packages with the set of those reached.
func (l *reachLoader) reach() ([]*reachUnit, map[*reachUnit]bool) {
	units, byObj := l.declUnits()
	ifaceMethods := l.interfaceMethods()

	reached := make(map[*reachUnit]bool)
	var work []*reachUnit
	mark := func(u *reachUnit) {
		if u != nil && !reached[u] {
			reached[u] = true
			work = append(work, u)
		}
	}
	for _, u := range units {
		if u.root {
			mark(u)
		}
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range u.methods {
			if ifaceMethods[m.method] {
				mark(m)
			}
		}
		ast.Inspect(u.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := u.pkg.info.Uses[id]; obj != nil {
					mark(byObj[reachOrigin(obj)])
				}
			}
			return true
		})
	}
	return units, reached
}

// interfaceMethods returns the name of every method of an interface that our
// code may call a concrete method through: interfaces written in our
// packages, those exported by the standard packages they import (directly or
// not), error, and the anonymous Is/As/Unwrap interfaces of errors.
func (l *reachLoader) interfaceMethods() map[string]bool {
	names := map[string]bool{"Error": true, "Is": true, "As": true, "Unwrap": true}
	std := make(map[*types.Package]bool)
	var walkStd func(p *types.Package)
	walkStd = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if _, mod := l.dirOf(imp.Path()); mod == "" && !std[imp] {
				std[imp] = true
				walkStd(imp)
			}
		}
	}
	for _, pkg := range l.order {
		walkStd(pkg.types)
		for _, f := range pkg.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							names[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	for p := range std {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	return names
}

// unreachableAllowed names the product declarations that no command reaches
// but that stay, each with its reason. A key is a package path (every
// unreachable declaration in it), a package-level name, or a type (the type
// and its methods).
var unreachableAllowed = map[string]string{
	"dnscentral":                                         "library facade, used only by examples/; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/sim":                            "deterministic simulator, used only by examples/fbrtt and its tests; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/zonedb.NewLeaf":                 "leaf zone that only internal/sim serves; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/layers.BuildUDP":                "frame builder that only internal/sim uses; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/layers.BuildTCP":                "frame builder that only internal/sim uses; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/authserver.WithClock":           "time source that only internal/sim and tests set; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/dnswire.ValidateName":           "test oracle: the dnswire and zonedb tests check name encodability with it",
	"dnscentral/internal/authserver.Listen":              "default-config listener that only examples/ and tests call; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/authserver.Engine.Zone":         "zone accessor that only internal/sim and tests call; ROADMAP items 12 and 16 decide it",
	"dnscentral/internal/entrada.Analyzer.AnalyzeReader": "whole-reader loop that only the facade and examples/ call; ROADMAP items 12 and 16 decide it",
}

// allowKey returns the allowlist key that covers u, or "".
func allowKey(u *reachUnit) string {
	keys := []string{u.name, u.pkg.path}
	if u.recv != nil {
		keys = append(keys, u.pkg.path+"."+u.recv.Name())
	}
	for _, k := range keys {
		if _, ok := unreachableAllowed[k]; ok {
			return k
		}
	}
	return ""
}

// reachOrigin maps an instantiated generic object to its declaration.
func reachOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reachUnit is one top-level declaration: a func or method, a type spec, or
// a whole const or var block.
type reachUnit struct {
	pkg     *reachPkg
	node    ast.Node
	name    string // import path "." name, or "." type "." method
	pos     string
	lines   int
	root    bool
	recv    types.Object // for a method: its receiver type
	method  string       // for a method: its name
	methods []*reachUnit // for a type: its methods
}

type reachPkg struct {
	path  string
	mod   string // its module's path
	files []*ast.File
	info  *types.Info
	types *types.Package
}

type reachModule struct{ path, dir string }

type reachLoader struct {
	t       *testing.T
	fset    *token.FileSet
	std     types.Importer
	mods    []reachModule // longest path first
	pkgs    map[string]*reachPkg
	order   []*reachPkg
	cmds    []*reachPkg
	rootMod string // the root module's path
}

// newReachLoader loads the modules in dirs: a nested module before the one
// that contains it, and the module whose declarations are checked last.
func newReachLoader(t *testing.T, dirs ...string) *reachLoader {
	// Pure-Go standard library: with cgo on, the source importer would run
	// the cgo tool for net and os/user. The gate reads no cgo code of ours.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &reachLoader{
		t:    t,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*reachPkg),
	}
	for _, dir := range dirs {
		l.mods = append(l.mods, reachModule{path: modulePath(t, dir), dir: dir})
	}
	l.rootMod = l.mods[len(l.mods)-1].path
	for _, m := range l.mods {
		err := filepath.WalkDir(m.dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != m.dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "examples" || fileExists(filepath.Join(p, "go.mod"))) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(m.dir, p)
			path := m.path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			if pkg := l.load(path); pkg != nil && pkg.types.Name() == "main" {
				l.cmds = append(l.cmds, pkg)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func modulePath(t *testing.T, dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("%s/go.mod: no module line", dir)
	return ""
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// dirOf returns the directory of one of our packages and its module's path,
// or "", "" for any other package.
func (l *reachLoader) dirOf(path string) (dir, mod string) {
	for _, m := range l.mods {
		if path == m.path {
			return m.dir, m.path
		}
		if rest, ok := strings.CutPrefix(path, m.path+"/"); ok {
			return filepath.Join(m.dir, filepath.FromSlash(rest)), m.path
		}
	}
	return "", ""
}

// Import implements types.Importer: the two modules from their directories,
// everything else from the standard library's source.
func (l *reachLoader) Import(path string) (*types.Package, error) {
	if _, mod := l.dirOf(path); mod == "" {
		return l.std.Import(path)
	}
	if pkg := l.load(path); pkg != nil {
		return pkg.types, nil
	}
	return nil, fmt.Errorf("%s: no Go files", path)
}

// load parses and type-checks the non-test files of one of our packages,
// once. It returns nil for a directory without Go files.
func (l *reachLoader) load(path string) *reachPkg {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg
	}
	dir, mod := l.dirOf(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		l.pkgs[path] = nil
		return nil
	}
	if err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	pkg := &reachPkg{path: path, mod: mod, info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	l.pkgs[path] = pkg
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		pkg.files = append(pkg.files, f)
	}
	conf := types.Config{Importer: l}
	if pkg.types, err = conf.Check(path, l.fset, pkg.files, pkg.info); err != nil {
		l.t.Fatalf("type-checking %s: %v", path, err)
	}
	l.order = append(l.order, pkg)
	return pkg
}

// declUnits splits every loaded package into declarations, marks the roots
// and the checked ones, and indexes them by the objects they declare.
func (l *reachLoader) declUnits() ([]*reachUnit, map[types.Object]*reachUnit) {
	linked := make(map[*types.Package]bool)
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if linked[p] {
			return
		}
		linked[p] = true
		for _, imp := range p.Imports() {
			if _, mod := l.dirOf(imp.Path()); mod != "" {
				link(imp)
			}
		}
	}
	for _, c := range l.cmds {
		link(c.types)
	}

	var units []*reachUnit
	byObj := make(map[types.Object]*reachUnit)
	typeUnits := make(map[types.Object]*reachUnit)
	var methods []*reachUnit
	for _, pkg := range l.order {
		isLinked := linked[pkg.types]
		add := func(node ast.Node, doc *ast.CommentGroup, name string, objs ...types.Object) *reachUnit {
			from := node.Pos()
			if doc != nil {
				from = doc.Pos()
			}
			p := l.fset.Position(from)
			u := &reachUnit{
				pkg:   pkg,
				node:  node,
				name:  pkg.path + "." + name,
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line),
				lines: l.fset.Position(node.End()).Line - p.Line + 1,
			}
			units = append(units, u)
			for _, o := range objs {
				if o != nil {
					byObj[o] = u
				}
			}
			return u
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := pkg.info.Defs[d.Name]
					name := d.Name.Name
					if d.Recv == nil {
						u := add(d, d.Doc, name, obj)
						u.root = isLinked && name == "init" || pkg.types.Name() == "main" && name == "main"
						continue
					}
					recv := obj.(*types.Func).Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					tn := recv.(*types.Named).Obj()
					u := add(d, d.Doc, tn.Name()+"."+name, obj)
					u.recv = tn
					u.method = name
					methods = append(methods, u)
				case *ast.GenDecl:
					switch d.Tok {
					case token.TYPE:
						for _, s := range d.Specs {
							ts := s.(*ast.TypeSpec)
							doc := ts.Doc
							if doc == nil && len(d.Specs) == 1 {
								doc = d.Doc
							}
							obj := pkg.info.Defs[ts.Name]
							typeUnits[obj] = add(ts, doc, ts.Name.Name, obj)
						}
					case token.CONST, token.VAR:
						var objs []types.Object
						var names []string
						for _, s := range d.Specs {
							for _, n := range s.(*ast.ValueSpec).Names {
								objs = append(objs, pkg.info.Defs[n])
								names = append(names, n.Name)
							}
						}
						name := names[0]
						if len(names) > 1 {
							name += ", …"
						}
						u := add(d, d.Doc, name, objs...)
						u.root = isLinked && d.Tok == token.VAR
					}
				}
			}
		}
	}
	for _, m := range methods {
		t := typeUnits[m.recv]
		t.methods = append(t.methods, m)
	}
	return units, byObj
}
