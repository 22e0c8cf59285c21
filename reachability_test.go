package credist

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed lists the internal functions that no program links but that
// stay, each with the reason. Every other internal function must be linked
// into at least one main package of this module or of credist-bench.
var reachAllowed = map[string]string{
	// Test references and oracles.
	"seedsel.Greedy":                  "test reference: CELF's O(nk) plain greedy",
	"seedsel.GreedyCandidates":        "test reference: plain greedy over a candidate pool",
	"ris.HoeffdingInterval":           "test reference: the bound Wilson's interval is checked against",
	"core.Evaluator.SetCredit":        "test reference: Gamma_{S,u}(a) the engine's credits are checked against",
	"core.Evaluator.index":            "used by the SetCredit test reference",
	"core.Engine.Credit":              "test oracle: tests read scanned UC credits through it",
	"core.shard.get":                  "test oracle: tests read single UC cells through it",
	"core.VertexCoverReduction":       "test oracle: Theorem 1's reduction from vertex cover",
	"core.CoverThreshold":             "test oracle: Theorem 1's spread bound",
	"graph.Builder.AddUndirected":     "used by Theorem 1's reduction",
	"cascade.NewWorldEstimator":       "test oracle: possible-worlds estimator that checks MC against Eq. 1",
	"cascade.NewWorldState":           "test oracle: possible-worlds estimator",
	"cascade.SampleICWorld":           "test oracle: possible-worlds estimator",
	"cascade.SampleLTWorld":           "test oracle: possible-worlds estimator",
	"cascade.World.Reachable":         "test oracle: possible-worlds estimator",
	"cascade.WorldEstimator.Add":      "test oracle: possible-worlds estimator",
	"cascade.WorldEstimator.Gain":     "test oracle: possible-worlds estimator",
	"cascade.WorldEstimator.NumNodes": "test oracle: possible-worlds estimator",
	"cascade.WorldEstimator.Seeds":    "test oracle: possible-worlds estimator",
	"cascade.WorldEstimator.Spread":   "test oracle: possible-worlds estimator",
	"cascade.Weights.InSum":           "test oracle: the LT model's in-weight bound",
	"actionlog.FromTuples":            "test fixture: builds a log from literal tuples",
	"actionlog.Log.Append":            "test fixture: AppendWithin without a universe bound",

	// Behind public facade methods no program calls.
	"core.Evaluator.PairCredit": "behind Model.PairCredit",

	// Interface markers, never called.
	"core.ProbeEstimator.ConcurrentGain": "marker for celf.ConcurrentEstimator",
	"ris.Estimator.ConcurrentGain":       "marker for celf.ConcurrentEstimator",
	"probs.GoyalModel.String":            "fmt.Stringer",

	// Accessors tests read state through.
	"actionlog.Log.PerformedAt":      "accessor: the paper's t(u, a)",
	"actionlog.Propagation.InDegree": "accessor: d_in(u, a)",
	"cascade.GreedyEstimator.Seeds":  "accessor: the committed seeds",
	"heuristic.Estimator.Seeds":      "accessor: the committed seeds",
	"heuristic.Estimator.Spread":     "accessor: the current spread estimate",
	"core.ActionDelays.NumActions":   "accessor",
	"core.Engine.ActionCount":        "accessor: A_u",
	"core.Engine.ResidentBytes":      "accessor: heap plus mapped bytes",
	"core.Evaluator.NumActions":      "accessor",
	"core.Evaluator.NumUsers":        "accessor",
	"graph.Graph.Degree":             "accessor",
	"graph.Graph.HasEdge":            "accessor",
}

// TestInternalFunctionsReachable builds every program with inlining off,
// lists the functions the linker kept, and fails on each internal function
// declaration that none of them links and reachAllowed does not name. It
// catches code that only its own tests still call.
func TestInternalFunctionsReachable(t *testing.T) {
	bin := t.TempDir()
	mains := goCmd(t, ".", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	args := append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, strings.Fields(mains)...)
	goCmd(t, ".", args...)
	goCmd(t, "credist-bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "credist-bench"), ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("built %d programs, want the module's mains and credist-bench", len(entries))
	}
	linked := make(map[string]bool)
	for _, e := range entries {
		for _, line := range strings.Split(goCmd(t, ".", "tool", "nm", filepath.Join(bin, e.Name())), "\n") {
			// "addr type name"; a generic shape in the name may hold spaces.
			if f := strings.Fields(line); len(f) >= 3 {
				for _, name := range symbolNames(strings.Join(f[2:], " ")) {
					linked[name] = true
				}
			}
		}
	}

	declared := make(map[string]bool)
	var unlinked []string
	for _, d := range internalFuncDecls(t) {
		declared[d] = true
		if !linked[d] && reachAllowed[d] == "" {
			unlinked = append(unlinked, d)
		}
	}
	if len(unlinked) > 0 {
		t.Errorf("%d internal functions are linked into no program; delete them or add each to reachAllowed with a reason:\n\t%s",
			len(unlinked), strings.Join(unlinked, "\n\t"))
	}
	for name := range reachAllowed {
		if !declared[name] {
			t.Errorf("reachAllowed names %s, which is not declared", name)
		} else if linked[name] {
			t.Errorf("reachAllowed names %s, which a program links", name)
		}
	}
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		msg := ""
		if ee, ok := err.(*exec.ExitError); ok {
			msg = string(ee.Stderr)
		}
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	return string(out)
}

// symbolNames maps a linker symbol of this module's internal packages to
// the declaration names it can stand for, "pkg.F" and "pkg.F.x": a method
// symbol pkg.(*T).M yields pkg.T.M, and a closure or wrapper pkg.F.func1
// yields pkg.F. Type arguments, pointer receivers and method-value
// suffixes are dropped. The extra name each yields (pkg.T, pkg.F.func1)
// names no function declaration, so it matches nothing.
func symbolNames(sym string) []string {
	const prefix = "credist/internal/"
	if !strings.HasPrefix(sym, prefix) {
		return nil
	}
	sym = strings.TrimSuffix(sym[len(prefix):], "-fm")
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	parts := strings.Split(b.String(), ".")
	if len(parts) < 2 || parts[1] == "" {
		return nil
	}
	names := []string{parts[0] + "." + parts[1]}
	if len(parts) >= 3 {
		names = append(names, names[0]+"."+parts[2])
	}
	return names
}

// internalFuncDecls parses every non-test Go file under internal/ that
// builds for this platform and returns its functions and methods, named as
// symbolNames names them. init functions are left out.
func internalFuncDecls(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		dir, file := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, file); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(dir, "internal"+string(filepath.Separator))))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// recvTypeName is the bare type name of a method receiver: T for T, *T,
// T[K] and *T[K].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
