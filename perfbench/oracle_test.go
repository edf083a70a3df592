package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"

	"indfd/internal/core"
	"indfd/internal/parser"
)

func fd(rel string, lhs []string, rhs ...string) fdep {
	return fdep{rel: rel, lhs: lhs, rhs: rhs}
}

// Armstrong's axioms on the textbook cases: transitivity, augmentation,
// and a left side that cannot be shrunk.
func TestAttrClosureWorkedExamples(t *testing.T) {
	sigma := []fdep{fd("R", []string{"A"}, "B"), fd("R", []string{"B"}, "C"), fd("R", []string{"C", "D"}, "E")}
	cases := []struct {
		goal fdep
		want bool
	}{
		{fd("R", []string{"A"}, "C"), true},           // transitivity
		{fd("R", []string{"A", "D"}, "E"), true},      // augmentation then transitivity
		{fd("R", []string{"A"}, "E"), false},          // D is missing
		{fd("R", []string{"C"}, "A"), false},          // FDs do not reverse
		{fd("R", []string{"E", "B"}, "B"), true},      // reflexivity
		{fd("S", []string{"A"}, "C"), false},          // another relation
		{fd("R", []string{"A", "D"}, "B", "E"), true}, // union
	}
	for _, c := range cases {
		if got := fdImplied(sigma, c.goal); got != c.want {
			t.Errorf("%s: got %v, want %v", fdText(c.goal), got, c.want)
		}
	}
}

// IND1–IND3 on the paper's rules: reflexivity, projection and
// permutation, transitivity — and a permutation of one side only,
// which does not follow.
func TestINDSearchWorkedExamples(t *testing.T) {
	sigma := []idep{
		{"R", []string{"A", "B"}, "S", []string{"C", "D"}},
		{"S", []string{"C", "D"}, "T", []string{"E", "F"}},
		{"U", []string{"A"}, "U", []string{"B"}},
		{"U", []string{"B"}, "U", []string{"C"}},
	}
	cases := []struct {
		goal idep
		want bool
	}{
		{idep{"R", []string{"A", "B"}, "R", []string{"A", "B"}}, true}, // IND1
		{idep{"R", []string{"B"}, "S", []string{"D"}}, true},           // IND2 projection
		{idep{"R", []string{"B", "A"}, "S", []string{"D", "C"}}, true}, // IND2 permutation
		{idep{"R", []string{"A", "B"}, "T", []string{"E", "F"}}, true}, // IND3
		{idep{"R", []string{"B"}, "T", []string{"F"}}, true},           // IND2 + IND3
		{idep{"R", []string{"A", "B"}, "T", []string{"F", "E"}}, false},
		{idep{"T", []string{"E"}, "R", []string{"A"}}, false},
		{idep{"U", []string{"A"}, "U", []string{"C"}}, true},
		{idep{"U", []string{"C"}, "U", []string{"A"}}, false},
	}
	for _, c := range cases {
		if got := indImplied(sigma, c.goal); got != c.want {
			t.Errorf("%s: got %v, want %v", indText(c.goal), got, c.want)
		}
	}
}

// The generated goals carry the verdicts the oracles and constructions
// give; the engines, asked directly (not through the server), must
// agree on every goal of every class over several seeds, and each class
// must ask for both verdicts.
func TestGeneratedVerdictsAgreeWithEngines(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := newGen(seed, 9, "")
		var instances []*instance
		for _, class := range goalClasses {
			for i := 0; i < 10; i++ {
				instances = append(instances, g.classInstance(class, i))
			}
		}
		docs, appGoals, appWants := appDocs()
		instances = append(instances,
			merge("props", g.prop41("1", 1, true), g.prop42("2", 2), g.prop43("3", 3)),
			g.wideFD("", wideWidth), g.spiral(spiralDepth, spiralBudget), g.indInstance(2, indGoals))
		for v, d := range docs {
			app := &instance{class: "app", rels: d.rels, fds: d.fds}
			for i, gs := range appGoals {
				gs.want = appWants[i][v]
				app.goals = append(app.goals, gs)
			}
			instances = append(instances, app)
		}
		seen := map[string]map[string]bool{}
		for _, in := range instances {
			for _, gs := range in.goals {
				got := engineVerdict(t, in, gs)
				if got != gs.want {
					t.Fatalf("seed %d %s goal %q finite=%v: engine %s, benchmark expects %s\nschema %v\nsigma %v",
						seed, in.class, gs.text, gs.finite, got, gs.want, in.schemaLines(), in.sigmaLines())
				}
				if seen[in.class] == nil {
					seen[in.class] = map[string]bool{}
				}
				seen[in.class][got] = true
			}
		}
		for _, class := range []string{"fd", "ind", "unary", "chase", "app"} {
			if !seen[class]["yes"] || !seen[class]["no"] {
				t.Errorf("seed %d: class %s expects only %v", seed, class, seen[class])
			}
		}
	}
}

func engineVerdict(t *testing.T, in *instance, gs goalSpec) string {
	t.Helper()
	f, err := parser.ParseString(depDocument(in.schemaLines(), in.sigmaLines(), []string{gs.text}, gs.finite))
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(f.DB)
	if err := sys.Add(f.Sigma...); err != nil {
		t.Fatal(err)
	}
	opt := core.Options{ChaseMaxTuples: gs.budget}
	var a core.Answer
	if gs.finite {
		a, err = sys.ImpliesFinite(f.Queries[0].Goal, opt)
	} else {
		a, err = sys.Implies(f.Queries[0].Goal, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return a.Verdict.String()
}

func TestNormalizeBlanksOnlyVolatileFields(t *testing.T) {
	in := `{"request_id":"abc-000012","goal":"R: A -> B","proof":"\"elapsed_us\":7","elapsed_us":123,"answers":[{"request_id":"x","elapsed_us":9}]}`
	want := `{"request_id":"","goal":"R: A -> B","proof":"\"elapsed_us\":7","elapsed_us":,"answers":[{"request_id":"","elapsed_us":}]}`
	if got := string(normalize(nil, []byte(in))); got != want {
		t.Errorf("normalize:\n got %s\nwant %s", got, want)
	}
	in = `{"explanation":"derive \"U\": A -> B","elapsed_us":5,"verdict":"yes"}`
	want = `{"explanation":"","elapsed_us":,"verdict":"yes"}`
	if got := string(blank(nil, []byte(in), true)); got != want {
		t.Errorf("blank with explanations:\n got %s\nwant %s", got, want)
	}
}

// theilSenAtZero must read a line at zero through an outlier, and fall
// back to the median when every block lost the same share.
func TestTheilSenAtZero(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 0.3, 0.4}
	ys := []float64{5, 7, 9, 100, 13} // y = 5 + 20x, one outlier
	if got := theilSenAtZero(xs, ys); math.Abs(got-5) > 1e-9 {
		t.Errorf("theilSenAtZero(line with outlier) = %v, want 5", got)
	}
	if got := theilSenAtZero([]float64{0, 0, 0}, []float64{3, 1, 2}); got != 2 {
		t.Errorf("theilSenAtZero(equal x) = %v, want the median 2", got)
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which
// judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2, 9, 4}, [3]float64{1.5, 3, 6.5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}

// The benchmark's server must be depserve as shipped: every flag
// default it relies on must still be the binary's.
func TestServerConfigMatchesDepserveDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/depserve")
	}
	if err := checkDefaults(".."); err != nil {
		t.Fatal(err)
	}
}

// The hot pool is a few hundred distinct requests, fewer than the
// answer cache holds.
func TestHotPoolIsDistinct(t *testing.T) {
	w, err := inlineHot(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range w.warm {
		seen[o.url.Path+string(o.body)] = true
	}
	if len(seen) != len(w.warm) || len(seen) >= 1024 {
		t.Errorf("%d distinct requests in a pool of %d", len(seen), len(w.warm))
	}
}

// The client's own per-request allocations are fixed and small: a
// server that answers with a constant body leaves only the client's.
func TestClientAllocationsPerRequest(t *testing.T) {
	w, err := inlineCold(1)
	if err != nil {
		t.Fatal(err)
	}
	answer := []byte(`{"request_id":"x","verdict":"` + w.round[0].want[0][0] + `","elapsed_us":1}`)
	c := &client{h: http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) { rw.Write(answer) }),
		hdr: http.Header{}, rec: recorder{hdr: http.Header{}}}
	allocs := testing.AllocsPerRun(200, func() { c.do(&w.round[0]) })
	t.Logf("client allocations per request: %.0f", allocs)
	if allocs > clientAllocs || c.failed > 0 {
		t.Errorf("client allocates %.0f per request (want at most %d), %d failed", allocs, clientAllocs, c.failed)
	}
}

// A run reports exactly the metrics BENCHMARK.json declares: the
// end-to-end ones untraced, the per-layer ones traced.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := run(w.Name, 7, 1, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
