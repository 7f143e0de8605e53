package incgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestArchitecture pins the module's structural decisions on its parsed
// source: identifiers, imports, declarations and paths, never text, so a
// name in a comment or a string cannot trip it and a reformatted
// declaration cannot slip past it. Each rule is one row of the table; a
// deliberate structural change edits its row in the same change. The walk
// covers the root module: it skips dot-directories (build caches live
// there), perf/ (a module of its own) and testdata/.
func TestArchitecture(t *testing.T) {
	tr := parseTree(t)
	for _, rule := range []struct {
		name  string
		check func(tr *archTree, report func(at, msg string))
	}{
		// An entry point that is replaced is deleted and its callers
		// migrated in the same change: nothing is kept deprecated.
		// Generated files, in their tools' wording, are exempt.
		{"no Deprecated markers", deprecatedComments},

		{"internal/history is test support", imports(nonTest, "incgraph/internal/history")},
		// The paper's figures are the benchmarks of bench_test.go.
		{"one home for the paper's figures", imports(anyFile,
			"incgraph/internal/bench", "incgraph/cmd/benchmark", "incgraph/cmd/benchcmp")},

		// The daemon attaches no shard workers; the coordinator lives on
		// for perf/ only.
		{"incgraphd is one process", idents(nonTestUnder("cmd/"),
			"NewCluster", "DialClusterWorker", "NewClusterWorker", "ListenCluster", "InProcessLinks")},
		// OpenDurable returns a recovered store and the graph is
		// read-shareable between mutations: both methods stay empty, only
		// for perf/'s replay, and nothing else calls them.
		{"nothing calls Recover or PrepareConcurrentReads", selectors(nonTest, "Recover", "PrepareConcurrentReads")},

		// A Durable holds no mid-recovery state (pending records, a
		// replayed flag).
		{"one recovery path", structFields(".", "Durable", anyField, "st", "base", "engines", "inPlace")},
		{"commitMu is the one write lock", structFields("cmd/incgraphd", "server", syncLock, "commitMu", "connMu")},
		{"one adjacency representation", noMapType("internal/graph/adjset.go", "adjacency is one ascending []NodeID")},
		// Node records live in one slot-indexed table, found through a
		// NodeIndex; nodes are never deleted, so a shard is its node count,
		// which is also its next local slot.
		{"one node table", structFields("internal/graph", "shard", anyField, "live")},
		{"one node table", noMapType("internal/graph/shard.go", "node records are one slot-indexed table")},
		{"no worker-stat poll", noMethod(anyFile, "", "StatsWithin")},
		// IncSCC− decides a split in settle; the intact-then-repair pair
		// was replaced by the peel.
		{"one split decision", noMethod(inDirOf("internal/scc"), "State", "intact")},
		// A class's row order and line format live in its engine's package;
		// the root package and the commands only forward them.
		{"one home for the row format", noMethod(rootOrCmd, "", "AppendRow", "CompareRows")},
		// Every knob the daemon has; a new flag is added here too.
		{"incgraphd's flags", flagNames(
			[]string{"cmd/incgraphd/main.go", "cmd/incgraphd/admission.go", "cmd/incgraphd/standby.go"},
			"addr", "bound", "checkpoint-bytes", "commit-inflight", "commit-queue",
			"fsync", "graph", "hub", "idle-timeout", "iso", "kws", "max-conns", "max-staged",
			"op-timeout", "primary", "read-inflight", "read-queue", "rpq", "scc",
			"store", "term", "ttl", "workers")},

		// Names of deleted subsystems: worker log shipping, the
		// concurrent-batch scheduler and pipelined log, shard moves and
		// the scrubber, tree-arc re-parenting, loadgen's YAML parser, node
		// deletion with its slot recycling and the slot state snapshots and
		// parcels used to carry, the coordinator's worker fault tolerance
		// (frame fault script, redial, resync, fencing, holdover drops)
		// and the daemon's disk-fault flag, the row surface beside
		// Maintained with its four per-class adapters and the daemon's
		// refusal of engines without it.
		{"deleted names stay deleted", idents(nonTest,
			"ReplicaLog", "ReplPolicy", "WithReplication", "SetLogDir", "FetchReplStates", "ClusterReplStates", "msgReplicate",
			"applyQueue", "acquireDeadline", "logMu", "Unappend", "ClusterCommit", "WithOnCommit", "OnCommit",
			"MoveShard", "StartScrubber", "ScrubShard", "ScrubCounters",
			"SetTreeArcRepair", "noRepair", "tryRepairTreeArc", "parseYAML",
			"DeleteNode", "recycleSlot", "SlotCap",
			"FaultScript", "Dialer", "WithClusterTerm", "WithCallTimeout", "ensureUp", "prepareShards",
			"Resyncs", "msgDrop", "parseDiskFault",
			"RowAnswer", "kwsAdapter", "rpqAdapter", "sccAdapter", "isoAdapter", "rowAnswers")},
		// The reply parsers and writers the wire grammar replaced, the test
		// client among them.
		{"deleted names stay deleted", idents(anyFile,
			"replyCategory", "isShed", "parseGen", "queryGen", "oneShot", "appliedLine", "appendStagedLine",
			"errLine", "replyErr", "errCategory", "lineClient", "dialLine", "statInt")},
		// incgraphd's replies are written and parsed by internal/wire alone.
		{"one wire grammar", oneGrammar("internal/wire")},
		// Every binary format is framed and read by internal/store's codec:
		// no second varint reader, whose rules for truncation, allocation
		// and canonical input would drift from the codec's.
		{"one byte codec", oneCodec("internal/store/codec.go")},
		// Disk-fault injection is test support: the tests import it from
		// internal/store, and the root package re-exports none of it.
		{"the fault surface is test support", idents(nonTestIn("."),
			"FaultFS", "FSRule", "FaultKind", "NewFaultFS", "ErrDiskCrashed", "FaultEIO", "FaultENOSPC",
			"FaultShortWrite", "FaultTornWrite", "FaultSyncFail", "FaultSyncLie", "FaultCrash", "FaultPowerFail")},
		// The second frame codec and the per-format readers it replaced.
		{"deleted names stay deleted", idents(anyFile,
			"segReader", "frameChunk", "maxWALRecord", "maxFrame", "frameHeaderSize", "zeroFrameHeader",
			"smallResp", "writeFrame", "writeFramePrefixed", "readFrame", "readFrameInto", "requestPrefixed",
			"appendUvarint")},
		// The differentials are TestHistory and TestDaemonHistory over
		// internal/history; the per-subsystem scaffolds stay gone.
		{"one differential harness", idents(anyFile,
			"mkEngines", "maintEngines", "classRun", "diffWorkload", "answerOf",
			"mkDurableQueries", "linHistory", "linReplay", "linOracle", "linConn")},
		{"deleted paths stay deleted", noPaths(
			"parallel_differential_test.go", "sharded_differential_test.go", "cluster_differential_test.go",
			"cluster_commit_differential_test.go", "ha_differential_test.go", "durable_split_test.go",
			"cmd/incgraphd/linearizable_test.go",
			"internal/bench", "cmd/benchmark", "cmd/benchcmp", "BENCH_*.json",
			"cmd/loadgen/**/*.yaml",
			"cmd/loadgen/scenarios/rebalance-under-load*", "cmd/loadgen/scenarios/scrub-every*",
			"internal/cluster/fault.go", "cmd/incgraphd/diskfault.go")},
		// go test -run with a pattern that matches nothing exits 0, so a CI
		// step naming deleted tests passes silently.
		{"CI names only tests that exist", ciPatterns(".github/workflows/ci.yml")},
	} {
		rule.check(tr, func(at, msg string) {
			t.Errorf("%s: %s: %s", rule.name, at, msg)
		})
	}
}

// archTree is the parsed root module.
type archTree struct {
	fset  *token.FileSet
	files []archFile
	paths []string // every file and directory walked, slash-separated
}

type archFile struct {
	path string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

func (tr *archTree) at(pos token.Pos) string {
	p := tr.fset.Position(pos)
	return p.Filename + ":" + strconv.Itoa(p.Line)
}

func parseTree(t *testing.T) *archTree {
	t.Helper()
	tr := &archTree{fset: token.NewFileSet()}
	root := os.DirFS(".")
	err := fs.WalkDir(root, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") || p == "perf" || d.Name() == "testdata") {
			return fs.SkipDir
		}
		tr.paths = append(tr.paths, p)
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(root, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(tr.fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.files = append(tr.files, archFile{path: p, test: strings.HasSuffix(p, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func anyFile(archFile) bool   { return true }
func nonTest(f archFile) bool { return !f.test }

func nonTestUnder(dir string) func(archFile) bool {
	return func(f archFile) bool { return !f.test && strings.HasPrefix(f.path, dir) }
}

// nonTestIn selects the non-test files of directory dir itself.
func nonTestIn(dir string) func(archFile) bool {
	return func(f archFile) bool { return !f.test && inDir(f, dir) }
}

// inDir reports whether f is in directory dir itself ("." is the root).
func inDir(f archFile, dir string) bool { return path.Dir(f.path) == dir }

func inDirOf(dir string) func(archFile) bool {
	return func(f archFile) bool { return inDir(f, dir) }
}

// rootOrCmd selects the root package's files and every file under cmd/.
func rootOrCmd(f archFile) bool { return inDir(f, ".") || strings.HasPrefix(f.path, "cmd/") }

func deprecatedComments(tr *archTree, report func(at, msg string)) {
	for _, f := range tr.files {
		if ast.IsGenerated(f.ast) {
			continue
		}
		for _, cg := range f.ast.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "Deprecated:") {
					report(tr.at(c.Pos()), "a Deprecated marker: delete the old entry point and migrate its callers")
				}
			}
		}
	}
}

// imports bans the import paths from the files keep selects.
func imports(keep func(archFile) bool, banned ...string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		for _, f := range tr.files {
			if !keep(f) {
				continue
			}
			for _, imp := range f.ast.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); slices.Contains(banned, p) {
					report(tr.at(imp.Pos()), "imports "+p)
				}
			}
		}
	}
}

// idents bans the names as identifiers, declared or referenced, from the
// files keep selects.
func idents(keep func(archFile) bool, banned ...string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		for _, f := range tr.files {
			if !keep(f) {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && slices.Contains(banned, id.Name) {
					report(tr.at(id.Pos()), "names "+id.Name)
				}
				return true
			})
		}
	}
}

// selectors bans x.Name references from the files keep selects; a
// declaration of Name is allowed.
func selectors(keep func(archFile) bool, banned ...string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		for _, f := range tr.files {
			if !keep(f) {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && slices.Contains(banned, sel.Sel.Name) {
					report(tr.at(sel.Sel.Pos()), "references ."+sel.Sel.Name)
				}
				return true
			})
		}
	}
}

func anyField(ast.Expr) bool { return true }

// syncLock selects fields of type sync.Mutex or sync.RWMutex.
func syncLock(typ ast.Expr) bool {
	sel, ok := typ.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}

// structFields requires the fields of struct typeName, declared in the
// non-test files of dir, whose type keep selects to be exactly want, in
// order.
func structFields(dir, typeName string, keep func(ast.Expr) bool, want ...string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		found := false
		for _, f := range tr.files {
			if f.test || !inDir(f, dir) {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				found = true
				var got []string
				for _, field := range st.Fields.List {
					if keep(field.Type) {
						for _, name := range field.Names {
							got = append(got, name.Name)
						}
					}
				}
				if !slices.Equal(got, want) {
					report(tr.at(ts.Pos()), "fields "+strings.Join(got, ", ")+"; want "+strings.Join(want, ", "))
				}
				return false
			})
		}
		if !found {
			report(dir, "declares no struct "+typeName)
		}
	}
}

// noMapType bans map types, declared or used, from one file; why says
// what stands in their place.
func noMapType(file, why string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		for _, f := range tr.files {
			if f.path != file {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if m, ok := n.(*ast.MapType); ok {
					report(tr.at(m.Pos()), "a map type; "+why)
				}
				return true
			})
		}
	}
}

// noMethod bans methods with any of names on receiver type recv ("" is
// any type) declared in the files keep selects, test files included.
func noMethod(keep func(archFile) bool, recv string, names ...string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		for _, f := range tr.files {
			if !keep(f) {
				continue
			}
			for _, decl := range f.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !slices.Contains(names, fd.Name.Name) {
					continue
				}
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); recv == "" || ok && id.Name == recv {
					report(tr.at(fd.Name.Pos()), "declares method "+fd.Name.Name)
				}
			}
		}
	}
}

// oneGrammar requires the reply grammar to be declared in dir alone:
// outside it, no type is named like an error category and no function is
// named, ignoring case, like one of dir's Append or Parse functions.
func oneGrammar(dir string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		grammar := map[string]bool{}
		for _, f := range tr.files {
			if f.test || !inDir(f, dir) {
				continue
			}
			for _, decl := range f.ast.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(strings.HasPrefix(fd.Name.Name, "Append") || strings.HasPrefix(fd.Name.Name, "Parse")) {
					grammar[strings.ToLower(fd.Name.Name)] = true
				}
			}
		}
		if len(grammar) == 0 {
			report(dir, "declares no Append or Parse function")
		}
		for _, f := range tr.files {
			if inDir(f, dir) {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.TypeSpec:
					if strings.HasSuffix(strings.ToLower(d.Name.Name), "category") {
						report(tr.at(d.Pos()), "declares "+d.Name.Name+": error categories are wire.Category")
					}
				case *ast.FuncDecl:
					if grammar[strings.ToLower(d.Name.Name)] {
						report(tr.at(d.Pos()), "declares "+d.Name.Name+": a reply is written and parsed in "+dir)
					}
				}
				return true
			})
		}
	}
}

// oneCodec bans calls to encoding/binary's Uvarint and Varint from every
// file but codec, the one file whose Reader checks them.
func oneCodec(codec string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		for _, f := range tr.files {
			if f.path == codec {
				continue
			}
			name := ""
			for _, imp := range f.ast.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/binary" {
					name = "binary"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Uvarint" && sel.Sel.Name != "Varint" {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					report(tr.at(call.Pos()), "calls "+name+"."+sel.Sel.Name+": varints are read by the Reader of "+codec)
				}
				return true
			})
		}
	}
}

// flagRegistrars are the flag and FlagSet functions that define a flag; a
// ...Var function takes the flag's name second, the others first.
var flagRegistrars = []string{
	"Bool", "BoolFunc", "BoolVar", "Duration", "DurationVar", "Float64", "Float64Var",
	"Func", "Int", "Int64", "Int64Var", "IntVar", "String", "StringVar", "TextVar",
	"Uint", "Uint64", "Uint64Var", "UintVar", "Var",
}

// flagNames requires the names of the flags registered through flag.X or
// fs.X calls in files to be exactly the set want.
func flagNames(files []string, want ...string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		where := map[string]string{}
		for _, f := range tr.files {
			if !slices.Contains(files, f.path) {
				continue
			}
			ast.Inspect(f.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !slices.Contains(flagRegistrars, sel.Sel.Name) {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" && x.Name != "fs" {
					return true
				}
				i := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					i = 1
				}
				lit, ok := call.Args[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					report(tr.at(call.Args[i].Pos()), "a flag name that is not a string literal")
					return true
				}
				name, _ := strconv.Unquote(lit.Value)
				where[name] = tr.at(lit.Pos())
				return true
			})
		}
		var got []string
		for name := range where {
			got = append(got, name)
		}
		sort.Strings(got)
		for _, name := range got {
			if !slices.Contains(want, name) {
				report(where[name], "flag -"+name+" is not in the list")
			}
		}
		for _, name := range want {
			if _, ok := where[name]; !ok {
				report(strings.Join(files, ", "), "flag -"+name+" is registered nowhere")
			}
		}
	}
}

// noPaths bans the paths matching any pattern: path.Match syntax over the
// slash path, where a leading "DIR/**/" matches any depth under DIR.
func noPaths(patterns ...string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		for _, p := range tr.paths {
			for _, pat := range patterns {
				dir, base, deep := strings.Cut(pat, "/**/")
				var hit bool
				if deep {
					hit, _ = path.Match(base, path.Base(p))
					hit = hit && strings.HasPrefix(p, dir+"/")
				} else {
					hit, _ = path.Match(pat, p)
				}
				if hit {
					report(p, "exists; it matches the deleted "+pat)
				}
			}
		}
	}
}

// ciFlag finds the test-selection flags of go test command lines in a
// workflow file: -run, -bench or -fuzz and its pattern, quoted or bare.
var ciFlag = regexp.MustCompile(`-(run|bench|fuzz)[ =]('[^']*'|"[^"]*"|[^\s'"]+)`)

// ciPatterns requires every |-alternative of every -run, -bench and -fuzz
// pattern in the workflow file to match the name of at least one Test,
// Benchmark or Fuzz function of the module's test files. '^$', the "run
// nothing" idiom, is exempt. A pattern's first /-level names top-level
// functions; deeper levels name subtests and are not checked.
func ciPatterns(file string) func(*archTree, func(at, msg string)) {
	return func(tr *archTree, report func(at, msg string)) {
		var names []string
		for _, f := range tr.files {
			if !f.test {
				continue
			}
			for _, decl := range f.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
					if strings.HasPrefix(fd.Name.Name, prefix) {
						names = append(names, fd.Name.Name)
					}
				}
			}
		}
		src, err := os.ReadFile(file)
		if err != nil {
			report(file, err.Error())
			return
		}
		for i, line := range strings.Split(string(src), "\n") {
			at := file + ":" + strconv.Itoa(i+1)
			for _, m := range ciFlag.FindAllStringSubmatch(line, -1) {
				pattern := strings.Trim(m[2], `'"`)
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					if alt == "^$" {
						continue
					}
					re, err := regexp.Compile(alt)
					if err != nil {
						report(at, "-"+m[1]+" alternative "+alt+": "+err.Error())
						continue
					}
					if !slices.ContainsFunc(names, re.MatchString) {
						report(at, "-"+m[1]+" alternative "+alt+" matches no Test, Benchmark or Fuzz function")
					}
				}
			}
		}
	}
}
