package silo

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the non-test functions under internal/ that no
// program links but that stay, each with its reason: an oracle names
// the test that holds live code to it, a seam names the live type it
// lets a test drive or read. A key is a function as funcKey spells it
// ("netcal.BusyPeriod", "netsim.Sim.Pending") or a whole file
// ("netcal/convolution.go").
var reachAllowlist = map[string]string{
	// Oracles.
	"netcal.BusyPeriod":                "oracle: the curve-generic busy period TestBusyPeriodTBMatchesGeneric and TestBusyPeriodTwoPieceMatchesGeneric hold BusyPeriodTB / BusyPeriodTwoPiece to",
	"netcal.sortedFloats":              "BusyPeriod's breakpoint merge (oracle above)",
	"netcal.Min":                       "oracle: the min-of-lines curve TestQueueBoundTwoPieceDegenerateIsMinOfLines and the cap-rule tests hold the rate-capped closed forms to",
	"netcal.PlainAggregate":            "oracle: the non-hose aggregate TestHoseTighterProperty holds HoseAggregate under",
	"netcal/convolution.go":            "min-plus convolution and the end-to-end bounds, kept as ROADMAP item 6's pay-bursts-only-once ablation row",
	"netcal.Propagate":                 "per-hop burst propagation that convolution.go's PerHopDelayBoundSum chains (ROADMAP item 6)",
	"topology.Tree.Path":               "oracle: the materialized path, a []Port of values stamped from the family templates, that the placement oracle (placement/oracle_test.go) sums per-hop bounds over; the TestPath* tests and TestPortTemplatesMatchDenseTable pin it",
	"pacer.NewConformanceChecker":      "oracle: the sliding-window B·t + S checker the bucket and batcher conformance tests hold paced output to",
	"pacer.ConformanceChecker.Observe": "oracle: ConformanceChecker (see NewConformanceChecker)",
	"pacer.ConformanceChecker.Check":   "oracle: ConformanceChecker (see NewConformanceChecker)",

	// Seams.
	"netsim.Sim.Pending":                             "seam: reads a live Sim's queued events (timer, wire and port-window tests)",
	"netsim.Queue.Down":                              "seam: reads a live Queue's link state after a fault schedule (faults tests)",
	"pacer.HostPacer.Pending":                        "seam: reads a live HostPacer's backlog (batch and frame tests drain it)",
	"pacer.VM.DestRate":                              "seam: reads the hose rate a live VM's destination bucket was retuned to (pacer and core coordination tests)",
	"obs/introspect.Introspector.SetPortBounds":      "seam: installs bounds on a live Introspector without a placement manager (introspect and planes tests)",
	"placement/durable.Manager.InjectAppendFailures": "seam: makes a live Manager's WAL appends fail (retry, abort and ladder tests)",
	"placement/durable.Manager.InjectSyncFailures":   "seam: makes a live Manager's fsyncs fail (TestFailedSyncDoesNotResurrectAbortedCommit)",
	"placement/durable.Manager.SetAppendObserver":    "seam: observes a live Manager between log append and apply (crash-point ladder tests)",
	"transport.Fabric.Endpoint":                      "seam: looks up a live Fabric's endpoint by VM (transport recovery tests)",
	"transport.Endpoint.Options":                     "seam: reads the pacing options a scheme gave a live Endpoint (core scheme tests)",
}

// TestEveryInternalFunctionIsLinked builds every main package with
// inlining off for this module (an inlined function leaves no symbol),
// reads the linked functions with go tool nm, and fails on each
// non-test function declared under internal/ that none of them links
// and that reachAllowlist does not name. A function only its own tests
// call goes, with those tests; one that stays says why in the
// allowlist.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	mains := strings.Fields(goOutput(t, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	if len(mains) == 0 {
		t.Fatal("go list found no main packages")
	}
	bin := t.TempDir()
	goOutput(t, append([]string{"build", "-buildvcs=false", "-gcflags=repro/...=-l", "-o", bin + string(filepath.Separator)}, mains...)...)

	linked := map[string]bool{}
	for _, m := range mains {
		sc := bufio.NewScanner(strings.NewReader(goOutput(t, "tool", "nm", filepath.Join(bin, filepath.Base(m)))))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if name := symbolKey(strings.Join(f[2:], " ")); name != "" {
				linked[name] = true
			}
		}
	}

	var unlinked []string
	used := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(goOutput(t, "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, "./internal/...")), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		pkg := strings.TrimPrefix(f[0], "repro/internal/")
		for _, file := range f[2:] {
			fset := token.NewFileSet()
			af, err := parser.ParseFile(fset, filepath.Join(f[1], file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			fileKey := pkg + "/" + file
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				key := funcKey(pkg, fd)
				if linked[key] {
					continue
				}
				switch {
				case reachAllowlist[key] != "":
					used[key] = true
				case reachAllowlist[fileKey] != "":
					used[fileKey] = true
				default:
					unlinked = append(unlinked, key)
				}
			}
		}
	}
	sort.Strings(unlinked)
	for _, k := range unlinked {
		t.Errorf("%s is linked into no program: delete it with the tests that call it, or allowlist it with a reason", k)
	}
	for k := range reachAllowlist {
		if !used[k] {
			t.Errorf("allowlist entry %s names nothing unlinked: drop it", k)
		}
	}
}

// optionAllowlist names the exported fields of option structs under
// internal/ that no program sets but that stay, each with its reason:
// an ablation names the ROADMAP item that decides it, a test-only field
// the test that cannot shrink its run through a knob a program turns.
// A key is package.Type.Field.
var optionAllowlist = map[string]string{
	"placement.Options.PlainAggregation":          "ablation: ROADMAP item 6's plain (non-hose) aggregation row; BenchmarkAblationHose and the certificate and silo tests set it",
	"placement.Options.DelayCheckUsesBound":       "ablation: ROADMAP item 6's bound-based delay check row; BenchmarkAblationDelayCheck and the equivalence test set it",
	"placement/durable.Options.Placement":         "ablation: carries the two rows above into a store and its config.json key; ROADMAP item 6's keep-or-delete rule decides it with them",
	"experiments.ComparisonParams.Racks":          "test: TestComparisonGolden pins all six schemes on a 5-rack tree in about a second",
	"experiments.ComparisonParams.ClassBMsgBytes": "test: TestComparisonGolden shrinks class-B messages to 256 KB so its 3 ms run drains in about a second",
}

// TestEveryOptionIsSet fails on each exported field of a struct under
// internal/ whose type name ends in Options, Config, Params or Policy
// that no non-test file of the module sets and that optionAllowlist
// does not name. It type-checks every package of the module from
// source and resolves each write to the one field it names: a
// composite-literal key (or position), or an assignment, increment or
// address-of through a selector. Writes inside the type's own
// withDefaults or fill method, or inside a function named Default…
// that returns the type, do not count, since they only supply the
// default. A knob no program turns is the default every caller already
// gets: make it a constant and delete the field.
func TestEveryOptionIsSet(t *testing.T) {
	pkgs := typeCheckModule(t)

	owner := map[*types.Var]*types.TypeName{} // option field -> its struct type
	var fields []string                       // package.Type.Field
	key := func(v *types.Var) string {
		tn := owner[v]
		return strings.TrimPrefix(tn.Pkg().Path(), "repro/internal/") + "." + tn.Name() + "." + v.Name()
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "repro/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !isOptionType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					owner[f] = tn
					fields = append(fields, key(f))
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no option struct under internal/")
	}

	set := map[string]bool{}
	for _, p := range pkgs {
		for _, af := range p.files {
			for _, d := range af.Decls {
				defaults := defaultsFor(p.info, d)
				note := func(obj types.Object) {
					if v, ok := obj.(*types.Var); ok && owner[v] != nil && !defaults[owner[v]] {
						set[key(v)] = true
					}
				}
				noteSel := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							note(s.Obj())
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.CompositeLit:
						st, ok := derefUnder(p.info.TypeOf(x)).(*types.Struct)
						if !ok {
							break
						}
						for i, e := range x.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									note(p.info.Uses[id])
								}
							} else if i < st.NumFields() {
								note(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, l := range x.Lhs {
							noteSel(l)
						}
					case *ast.IncDecStmt:
						noteSel(x.X)
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							noteSel(x.X)
						}
					}
					return true
				})
			}
		}
	}

	sort.Strings(fields)
	for _, k := range fields {
		switch {
		case set[k] && optionAllowlist[k] != "":
			t.Errorf("allowlist entry %s is set by a program: drop it", k)
		case set[k], optionAllowlist[k] != "":
		default:
			t.Errorf("%s is set by no program: make it the constant every caller gets and delete the field, or allowlist it with a reason", k)
		}
	}
	for k := range optionAllowlist {
		if !slices.Contains(fields, k) {
			t.Errorf("allowlist entry %s names no option field: drop it", k)
		}
	}
}

// defaultsFor returns the option types whose fields a declaration only
// defaults: the receiver of a withDefaults or fill method, or each
// result type of a function named Default….
func defaultsFor(info *types.Info, d ast.Decl) map[*types.TypeName]bool {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return nil
	}
	sig := info.Defs[fd.Name].(*types.Func).Type().(*types.Signature)
	var of []types.Type
	switch {
	case sig.Recv() != nil && (fd.Name.Name == "withDefaults" || fd.Name.Name == "fill"):
		of = append(of, sig.Recv().Type())
	case sig.Recv() == nil && strings.HasPrefix(fd.Name.Name, "Default"):
		for i := range sig.Results().Len() {
			of = append(of, sig.Results().At(i).Type())
		}
	}
	m := map[*types.TypeName]bool{}
	for _, typ := range of {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if n, ok := typ.(*types.Named); ok {
			m[n.Obj()] = true
		}
	}
	return m
}

// derefUnder returns the underlying type of t, or of what t points to.
func derefUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem().Underlying()
	}
	return t.Underlying()
}

// checkedPkg is one package of the module, type-checked from its
// non-test files.
type checkedPkg struct {
	dir   string
	names []string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// moduleImporter type-checks this module's packages from source, each
// once, on first import, and hands every other path to the standard
// library's source importer, so nothing is downloaded or built.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPkg
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	for _, name := range p.names {
		af, err := parser.ParseFile(m.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, af)
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.pkg = pkg
	return pkg, nil
}

// typeCheckModule type-checks every package of the module from its
// non-test files and returns them sorted by import path.
func typeCheckModule(t *testing.T) []*checkedPkg {
	t.Helper()
	fset := token.NewFileSet()
	m := &moduleImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checkedPkg{}}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(goOutput(t, "list", "-f", `{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}`, "./...")), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		m.pkgs[f[0]] = &checkedPkg{dir: f[1], names: f[2:]}
		paths = append(paths, f[0])
	}
	sort.Strings(paths)
	pkgs := make([]*checkedPkg, 0, len(paths))
	for _, path := range paths {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, m.pkgs[path])
	}
	return pkgs
}

// isOptionType reports whether a struct type's name marks it as a bag
// of settings.
func isOptionType(name string) bool {
	for _, suf := range [...]string{"Options", "Config", "Params", "Policy"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// funcKey spells a declaration as symbolKey spells its symbol: the
// package path below internal/, then the receiver's type name (without
// pointer or type parameters), then the function name.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// symbolKey turns a linker symbol of this module's internal packages
// into funcKey's form, or "" for any other symbol. It strips generic
// instantiation suffixes ("ring[go.shape.int]") and pointer receivers
// ("(*T)"); closures and wrappers ("F.func1", "T.M-fm") map to nothing
// a declaration can match, which is harmless.
func symbolKey(sym string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(sym, prefix) {
		return ""
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym[len(prefix):] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0, r == '(', r == ')', r == '*':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goOutput runs the go command and returns its standard output.
func goOutput(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}
