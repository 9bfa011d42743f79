package lambdanic

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
)

// auditAllow is every declaration under internal/ and cmd/ that no
// non-test code references but that stays, with the reason it stays.
// Keys are "<dir>.<Name>" for package-level names and
// "<dir>.<Type>.<Method>" for methods.
var auditAllow = map[string]string{
	// Options only tests set: deadlines and a clock make timing
	// deterministic; a small MTU, window or limit reaches the
	// multi-fragment, paced and capped paths with small inputs.
	"internal/gateway.WithUpstreamTimeout": "a short upstream deadline makes failover timing deterministic",
	"internal/gateway.WithAdmissionClock":  "a virtual admission clock makes token-bucket refills deterministic",
	"internal/transport.WithMTU":           "a small MTU reaches the multi-fragment path with small inputs",
	"internal/transport.WithSendWindow":    "a small send window reaches the paced path with small inputs",
	"internal/obs.WithLimit":               "a small span limit reaches the capped path with small inputs",

	// Oracles, test hooks and observers: tests use them to drive or
	// observe code that stays.
	"internal/mcc.LinkNoReplay":              "the image that executes every request: the matchlambda and rack-set differential tests hold replays to it",
	"internal/mcc.Executable.RunStandalone":  "runs one function outside a NIC; the interpreter tests drive it through it",
	"internal/mcc.Executable.Program":        "observes the linked program the rack tests compare across NICs",
	"internal/backend.LambdaNIC.Executable":  "observes the deployed firmware image the shared-firmware tests compare",
	"internal/backend.LambdaNIC.RDMA":        "observes the backend's RDMA engine counters in the bypass and in-place tests",
	"internal/backend.Result.Reply":          "builds a replayed reply's bytes; tests read them to check what the lambda returned",
	"internal/rdma.Engine.Counters":          "observes the engine's verb, doorbell and window-stall counts that ten RDMA and backend tests assert",
	"internal/rdma.Engine.Read":              "the reference one-sided read verb; the RDMA tests drive the engine's access checks and link timing through it",
	"internal/rdma.Engine.Write":             "the reference one-sided write verb; the RDMA tests drive the engine's access checks and link timing through it",
	"internal/rdma.Region.Bytes":             "observes a region's backing bytes after verbs complete",
	"internal/rdma.QP.Posted":                "observes the submission ring before a doorbell (TestQPDoorbellBatching)",
	"internal/rdma.QP.Outstanding":           "observes the in-flight window (TestQPWindowStallsAndCompletion)",
	"internal/nicsim.ExecStats.Accesses":     "observes per-level memory accesses the cost tests assert",
	"internal/cpusim.Host.Stats":             "observes context switches the cpusim tests assert",
	"internal/sim.Sim.StepUntil":             "steps the kernel to a horizon one event at a time; the kernel differential tests drive it",
	"internal/sim.Sim.Pending":               "observes the queue length the kernel tests assert",
	"internal/sim.Sim.Stop":                  "halts a run from inside an event; TestStop and TestStepHonorsStopped hold the run loop's stop check",
	"internal/sim.Sim.Stopped":               "observes the stop flag (TestStepHonorsStopped)",
	"internal/sim.Event.Cancelled":           "observes cancellation in TestCancel and TestRescheduleCancelledEventReArms",
	"internal/transport.raceEnabled":         "lets the allocation gates in tests skip under -race",
	"internal/transport.Reassembler.Pending": "observes partial-message state the reassembler and fuzz tests bound",
	"internal/transport.Endpoint.CallWithin": "a blocking call under a budget; TestCallWithin holds the attempt timer's budget cut, which the gateway reaches through CallAsync",
	"internal/core.Manager.Compile":          "builds the manager's workloads into one image; the core and mcl tests check it loads",
	"internal/core.Manager.Control":          "the Raft control store; tests inject control-plane failures through it",
	"internal/core.Manager.Workload":         "looks up a registered workload; the registration tests check what was stored",
	"internal/core.Worker.Remove":            "undeploys a workload; the install/remove tests drive the worker's copy-on-write lambda table through it",
	"internal/core.Worker.Installed":         "observes the worker's lambda table in the install/remove tests",
	"internal/raftkv.Cluster.Partition":      "test hook: cuts a minority off to check it cannot commit",
	"internal/raftkv.Cluster.Heal":           "test hook: undoes Partition",
	"internal/raftkv.Cluster.Down":           "test hook: stops a node to drive leader failover",
	"internal/raftkv.Cluster.Up":             "test hook: restarts a stopped node",
	"internal/raftkv.Cluster.Node":           "test hook: observes one node's state",
	"internal/raftkv.Cluster.CompactAll":     "test hook: compacts every log to drive snapshot install",
	"internal/raftkv.Node.Leader":            "observes a node's leader view in TestThreeNodeElection",
	"internal/raftkv.Node.SnapshotIndex":     "observes log compaction in the snapshot tests",
	"internal/dispatch.LRU.Contains":         "observes the warm-flow LRU in its eviction tests",
	"internal/dispatch.LRU.Len":              "observes the warm-flow LRU in its eviction tests",
	"internal/dispatch.Ring.Members":         "observes the ring's members in the stability tests",
	"internal/dispatch.Sketch.Flows":         "observes the flow sketch's live entries in its decay tests",
	"internal/dispatch.Sketch.Rate":          "observes the flow sketch's rate estimate in its elephant tests",
	"internal/drf.Allocator.Release":         "returns a user's tasks; the DRF tests drive refilling through it",
	"internal/drf.Allocator.Remaining":       "observes unallocated capacity in the DRF property tests",
	"internal/drf.Allocator.Utilization":     "observes allocated share in the DRF property tests",
	"internal/obs.Collector.Stats":           "observes the tracer's sampled and dropped counts",
	"internal/obs.WriteChromeTrace":          "writes the trace to any io.Writer; the Chrome-trace golden and JSON tests read it from memory",
	"internal/workloads.KVStoreLambda":       "the in-NIC key-value store lambda: the only real workload TestReplayVerdicts must see rejected for reading state it writes, and FuzzWorkerHandle installs it",
	"internal/workloads.KVStoreHeader":       "builds the header KVStoreLambda parses; its tests drive it",
	"internal/tenant.Registry.OwnerID":       "the tenant classifier EnableAdmission takes; the admission tests install it",

	// Kept for tenant admission on the real clock, which an open-loop
	// shed curve needs; until then tests drive it.
	"internal/gateway.Gateway.EnableAdmission": "tenant admission on the real clock, kept for an open-loop shed curve; the admission tests and the exposition golden drive it",

	// Registry conveniences: tests build registries with them.
	"internal/monitor.Counter.Add":          "bench/bench_test.go and the monitor tests build registries with it to drive Render",
	"internal/monitor.Registry.MustCounter": "bench/bench_test.go and the monitor tests build registries with it to drive Render",
	"internal/monitor.Registry.MustGauge":   "the golden exposition and fleet-view tests build registries with it to drive Render",

	// Packages ROADMAP leaves to their own audit: autoscale and
	// placement (one user each).
	"internal/autoscale.Autoscaler.Rate":          "autoscale audit: observes the EWMA in the smoothing tests",
	"internal/autoscale.Autoscaler.Replicas":      "autoscale audit: observes scaling decisions in the autoscaler tests",
	"internal/placement.Coordinator.SetCollector": "placement audit: TestCoordinatorRunsThreeStepProtocol wires a collector through it",
	"internal/placement.Engine.Abort":             "placement audit: TestAbortRollsBack is its only caller",
}

// TestNoDeclarationWithoutCaller type-checks every non-test package of
// the module and fails on any func, method, type, const or package-level
// var declared in a non-test file under internal/ or cmd/ that no
// non-test file of the module references, unless auditAllow names it.
// bench/ and examples/ count as callers. A method that lets its type
// satisfy an interface counts as referenced. Files are read under the
// default build tags and again under "race", and a declaration counts as
// referenced if either build references it.
func TestNoDeclarationWithoutCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	declared := map[string]token.Position{}
	used := map[string]bool{}
	for _, tags := range [][]string{nil, {"race"}} {
		a, err := auditModule(".", tags)
		if err != nil {
			t.Fatalf("tags %v: %v", tags, err)
		}
		for k, pos := range a.declared {
			declared[k] = pos
		}
		for k := range a.used {
			used[k] = true
		}
	}

	var unused []string
	for k, pos := range declared {
		if !used[k] {
			if _, ok := auditAllow[k]; !ok {
				unused = append(unused, fmt.Sprintf("%s (%s)", k, pos))
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no non-test code references %s: delete it, or allow-list it with a reason", u)
	}
	for k := range auditAllow {
		if _, ok := declared[k]; !ok {
			t.Errorf("allow-list entry %s names no declaration", k)
		} else if used[k] {
			t.Errorf("allow-list entry %s has a non-test caller now; remove the entry", k)
		}
	}
}

// audit is one build of the module: what it declares under internal/
// and cmd/, and what its non-test files reference.
type audit struct {
	fset     *token.FileSet
	ctx      build.Context
	root     string
	module   string
	dirs     map[string]string // import path -> directory
	pkgs     map[string]*types.Package
	infos    []*types.Info
	files    [][]*ast.File
	fallback types.Importer

	declared map[string]token.Position
	used     map[string]bool
}

// auditModule type-checks every non-test package under root with the
// given build tags.
func auditModule(root string, tags []string) (*audit, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("no module line in go.mod")
	}
	a := &audit{
		fset:     token.NewFileSet(),
		ctx:      build.Default,
		root:     root,
		module:   module,
		dirs:     map[string]string{},
		pkgs:     map[string]*types.Package{},
		fallback: importer.Default(),
		declared: map[string]token.Position{},
		used:     map[string]bool{},
	}
	a.ctx.BuildTags = tags
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		a.dirs[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(a.dirs))
	for p := range a.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := a.check(p); err != nil {
			return nil, err
		}
	}
	a.collect()
	return a, nil
}

// Import satisfies types.Importer: the module's packages are checked
// from source, the rest come from compiler export data.
func (a *audit) Import(path string) (*types.Package, error) {
	if path == a.module || strings.HasPrefix(path, a.module+"/") {
		return a.check(path)
	}
	return a.fallback.Import(path)
}

// check parses and type-checks one module package, once.
func (a *audit) check(path string) (*types.Package, error) {
	if pkg, ok := a.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := a.dirs[path]
	if !ok {
		return nil, fmt.Errorf("package %s not in the module", path)
	}
	bp, err := a.ctx.ImportDir(dir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			a.pkgs[path] = nil
			return nil, nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(a.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: a}
	pkg, err := conf.Check(path, a.fset, files, info)
	if err != nil {
		return nil, err
	}
	a.pkgs[path] = pkg
	a.infos = append(a.infos, info)
	a.files = append(a.files, files)
	return pkg, nil
}

// collect fills declared and used from the checked packages.
func (a *audit) collect() {
	// A reference from inside an object's own declaration (recursion, a
	// method naming its receiver type) does not count as a caller; own
	// holds those source ranges. A type's methods belong to it.
	type span struct{ from, to token.Pos }
	own := map[types.Object][]span{}
	for i, files := range a.files {
		info := a.infos[i]
		for _, f := range files {
			dir, audited := a.auditedDir(f)
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					own[fn] = append(own[fn], span{d.Pos(), d.End()})
					if recv := fn.Signature().Recv(); recv != nil {
						if n := namedOf(recv.Type()); n != nil {
							own[n.Obj()] = append(own[n.Obj()], span{d.Pos(), d.End()})
						}
					} else if d.Name.Name == "main" || d.Name.Name == "init" {
						continue
					}
					if audited && d.Name.Name != "_" {
						a.declared[declKey(dir, fn)] = a.fset.Position(d.Name.Pos())
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if n.Name == "_" {
								continue
							}
							obj := info.Defs[n]
							own[obj] = append(own[obj], span{s.Pos(), s.End()})
							if audited {
								a.declared[declKey(dir, obj)] = a.fset.Position(n.Pos())
							}
						}
					}
				}
			}
		}
	}
	for _, info := range a.infos {
	uses:
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj.Pkg() == nil || a.dirs[obj.Pkg().Path()] == "" {
				continue
			}
			for _, s := range own[obj] {
				if id.Pos() >= s.from && id.Pos() < s.to {
					continue uses
				}
			}
			a.used[a.key(obj)] = true
		}
	}
	a.useInterfaceMethods()
}

// auditedDir reports the module-relative directory of f and whether
// declarations in it are audited (internal/ and cmd/).
func (a *audit) auditedDir(f *ast.File) (string, bool) {
	rel, err := filepath.Rel(a.root, filepath.Dir(a.fset.Position(f.Package).Filename))
	if err != nil {
		return "", false
	}
	rel = filepath.ToSlash(rel)
	return rel, strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
}

// declKey names a declaration for the report and the allow-list.
func declKey(dir string, obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			return dir + "." + namedOf(recv.Type()).Obj().Name() + "." + fn.Name()
		}
	}
	return dir + "." + obj.Name()
}

// key is declKey for an object of any checked package.
func (a *audit) key(obj types.Object) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), a.module), "/")
	if rel == "" {
		rel = "."
	}
	return declKey(rel, obj)
}

// namedOf is the named type of a method receiver, T or *T.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// useInterfaceMethods marks every method of a module type that the type
// needs to implement some interface the build can see.
func (a *audit) useInterfaceMethods() {
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range a.pkgs {
		visit(p)
	}
	for _, info := range a.infos {
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, p := range a.pkgs {
		if p == nil {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, it := range ifaces {
				if !types.Implements(named, it) && !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					for j := 0; j < named.NumMethods(); j++ {
						if m := named.Method(j); m.Name() == it.Method(i).Name() {
							a.used[a.key(m)] = true
						}
					}
				}
			}
		}
	}
}
