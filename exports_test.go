package eva_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreferencedExports fails on an exported function or method under
// internal/ that nothing outside its own package's tests refers to: no
// non-test file of the module, and no _test.go file in another directory. A
// helper only its own tests need belongs in a _test.go file of its package
// (export_test.go when another package's tests need it too). A method that
// implements an interface method of the same name is exempt, whichever
// interface it is: one declared in the module, one of the standard library
// packages the module imports, or an interface literal in the module's code.
func TestNoUnreferencedExports(t *testing.T) {
	m := loadModule(t, ".")
	var dead []string
	for _, fn := range m.candidates() {
		k := funcKey(fn)
		if m.refs[k] || m.implementsInterface(fn) {
			continue
		}
		testOnly := ""
		if m.ownTestRefs[k] {
			testOnly = " (only its own package's tests use it: move it into a _test.go file)"
		}
		pos := m.fset.Position(fn.Pos())
		dead = append(dead, k+" at "+filepath.ToSlash(pos.Filename)+":"+strconv.Itoa(pos.Line)+testOnly)
	}
	slices.Sort(dead)
	for _, d := range dead {
		t.Errorf("unreferenced export %s", d)
	}
}

// module is the type-checked module: every package, its in-package test
// variant and its external test package, with the references among them.
type module struct {
	path  string // module path
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]*build.Package // import path -> files
	plain map[string]*types.Package // import path -> non-test package
	// refs holds the functions some non-test file, or a _test.go file
	// outside the function's own directory, refers to; ownTestRefs those
	// only the function's own package's tests refer to.
	refs, ownTestRefs map[string]bool
	// ifaces are the interfaces a method may be implementing.
	ifaces []*types.Interface
}

func loadModule(t *testing.T, root string) *module {
	t.Helper()
	modPath := modulePath(t, filepath.Join(root, "go.mod"))
	m := &module{
		path:        modPath,
		fset:        token.NewFileSet(),
		dirs:        map[string]*build.Package{},
		plain:       map[string]*types.Package{},
		refs:        map[string]bool{},
		ownTestRefs: map[string]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(root, p)
		m.dirs[path.Join(modPath, filepath.ToSlash(rel))] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(m.dirs))
	for p := range m.dirs {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		if _, err := m.load(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range paths {
		if err := m.loadTests(p); err != nil {
			t.Fatal(err)
		}
	}
	m.collectStdInterfaces()
	return m
}

// modulePath reads the module directive of a go.mod file.
func modulePath(t *testing.T, gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	t.Fatalf("%s: no module directive", gomod)
	return ""
}

func (m *module) inModule(p string) bool { return p == m.path || strings.HasPrefix(p, m.path+"/") }

// Import resolves module packages to their non-test variant and everything
// else through the standard-library importer.
func (m *module) Import(p string) (*types.Package, error) {
	if m.inModule(p) {
		return m.load(p)
	}
	return m.std.Import(p)
}

// load type-checks the non-test files of one module package, recording
// every reference they make.
func (m *module) load(p string) (*types.Package, error) {
	if pkg, ok := m.plain[p]; ok {
		return pkg, nil
	}
	bp := m.dirs[p]
	if bp == nil {
		return nil, &os.PathError{Op: "import", Path: p, Err: os.ErrNotExist}
	}
	files, err := m.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, info, err := m.check(p, files, m)
	if err != nil {
		return nil, err
	}
	m.plain[p] = pkg
	m.record(info, func(*ast.Ident) bool { return true }, "")
	return pkg, nil
}

// loadTests type-checks a package's in-package tests (with the package's
// own files) and its external test package, recording the references the
// test files make.
func (m *module) loadTests(p string) error {
	bp := m.dirs[p]
	self, err := m.load(p)
	if err != nil {
		return err
	}
	if len(bp.TestGoFiles) > 0 {
		own, err := m.parse(bp.Dir, bp.GoFiles)
		if err != nil {
			return err
		}
		tests, err := m.parse(bp.Dir, bp.TestGoFiles)
		if err != nil {
			return err
		}
		pkg, info, err := m.check(p, append(own, tests...), m)
		if err != nil {
			return err
		}
		self = pkg
		m.record(info, m.inFiles(tests), p)
	}
	if len(bp.XTestGoFiles) > 0 {
		xtests, err := m.parse(bp.Dir, bp.XTestGoFiles)
		if err != nil {
			return err
		}
		// As the go command does, every module package that imports p is
		// checked again against the test variant of p.
		variants := map[string]*types.Package{p: self}
		var imp importerFunc
		imp = func(ip string) (*types.Package, error) {
			if pkg, ok := variants[ip]; ok {
				return pkg, nil
			}
			plain, err := m.Import(ip)
			if err != nil || !m.inModule(ip) || !m.dependsOn(plain, p) {
				return plain, err
			}
			files, err := m.parse(m.dirs[ip].Dir, m.dirs[ip].GoFiles)
			if err != nil {
				return nil, err
			}
			pkg, _, err := m.check(ip, files, imp)
			if err != nil {
				return nil, err
			}
			variants[ip] = pkg
			return pkg, nil
		}
		_, info, err := m.check(p+"_test", xtests, imp)
		if err != nil {
			return err
		}
		m.record(info, m.inFiles(xtests), p)
	}
	return nil
}

// dependsOn reports whether pkg imports the module package at path p,
// directly or not. Only module packages can, so the walk stays inside the
// module.
func (m *module) dependsOn(pkg *types.Package, p string) bool {
	for _, imp := range pkg.Imports() {
		if m.inModule(imp.Path()) && (imp.Path() == p || m.dependsOn(imp, p)) {
			return true
		}
	}
	return false
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

func (m *module) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (m *module) check(p string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: imp}).Check(p, m.fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	for _, tv := range info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && iface.NumMethods() > 0 {
			m.ifaces = append(m.ifaces, iface)
		}
	}
	return pkg, info, nil
}

// inFiles reports whether an identifier lies in one of files.
func (m *module) inFiles(files []*ast.File) func(*ast.Ident) bool {
	return func(id *ast.Ident) bool {
		for _, f := range files {
			if f.FileStart <= id.Pos() && id.Pos() < f.FileEnd {
				return true
			}
		}
		return false
	}
}

// record notes the functions the identifiers selected by keep refer to.
// testDir is the import path of the package whose tests made the
// references, or "" for non-test files.
func (m *module) record(info *types.Info, keep func(*ast.Ident) bool, testDir string) {
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || !m.inModule(fn.Pkg().Path()) || !keep(id) {
			continue
		}
		k := funcKey(fn)
		if testDir != "" && fn.Origin().Pkg().Path() == testDir {
			m.ownTestRefs[k] = true
		} else {
			m.refs[k] = true
		}
	}
}

// collectStdInterfaces adds the interfaces declared by every package the
// module imports, directly or not.
func (m *module) collectStdInterfaces() {
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					m.ifaces = append(m.ifaces, iface)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.plain {
		visit(pkg)
	}
	m.ifaces = append(m.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// candidates lists the exported functions and methods declared in the
// non-test files of the module's internal/ packages.
func (m *module) candidates() []*types.Func {
	var out []*types.Func
	for p, pkg := range m.plain {
		if !strings.Contains(p+"/", "/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					out = append(out, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				for i := range named.NumMethods() {
					if meth := named.Method(i); meth.Exported() {
						out = append(out, meth)
					}
				}
			}
		}
	}
	return out
}

// implementsInterface reports whether fn is a method through which its
// receiver type (or a pointer to it) implements a known interface that
// declares a method of fn's name.
func (m *module) implementsInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, iface := range m.ifaces {
		has := false
		for i := range iface.NumMethods() {
			if iface.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
			return true
		}
	}
	return false
}

// funcKey names a function or method independently of which type-checked
// variant of its package declared it.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
