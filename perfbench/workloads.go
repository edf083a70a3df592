package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strings"

	"indfd/internal/serve"
)

type opKind int

const (
	opImplies opKind = iota
	opExplain
	opBatch
	opPut
)

// op is one pre-rendered request and what its answer must be.
type op struct {
	kind opKind
	url  *url.URL
	body []byte
	// stamps are the offsets of the name placeholders in body; each
	// request overwrites them with a fresh id (inline_cold).
	stamps []int
	goals  int
	// want holds the expected verdict of every goal, per version of the
	// edited schema (one entry when the answer does not depend on it).
	want [][]string
	// ref is the slot the first answer's normalised body is kept in; a
	// later answer must match it byte for byte. -1: not compared.
	ref int
	// putDoc is the version an edit publishes; untouched marks an edit
	// that changes only a relation no goal reads.
	putDoc    int
	untouched bool
	// class is the goal class (fd, ind, unary, chase) or the schema name.
	class string
}

func (o *op) wantFor(doc int) []string {
	if len(o.want) == 1 {
		return o.want[0]
	}
	return o.want[doc]
}

// workload is the generated input of one run: setup registrations
// (timed in setup_s), an untimed warm-up, and the round the measured
// window repeats whole.
type workload struct {
	name  string
	setup []op
	warm  []op
	round []op
	nrefs int
}

// stampPlaceholder marks a name suffix that inline_cold rewrites into a
// per-request id (8 hex digits) before sending.
const stampPlaceholder = "~~~~~~~~"

const (
	hotPerClass  = 96   // 4 classes × 96 = 384 distinct requests < 1024 cache entries
	hotRound     = 2048 // draws per round
	hotSkew      = 0.8  // rank-i weight ∝ (i+1)^-hotSkew within a class
	coldPerClass = 64   // 256 templates
	coldCopies   = 4    // each template 4× per round: 1024 fresh requests
	explainShare = 4    // one request in explainShare goes to /v1/explain
)

func buildWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "inline_hot":
		return inlineHot(seed)
	case "inline_cold":
		return inlineCold(seed)
	case "named_rw":
		return namedRW(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want inline_hot, inline_cold or named_rw)", name)
}

func mustURL(path string) *url.URL {
	u, err := url.Parse(path)
	if err != nil {
		panic(err)
	}
	return u
}

func marshal(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return bytes.TrimRight(b.Bytes(), "\n")
}

// inlineOps renders one op per distinct (instance, goal) of each goal
// class, perClass ops a class, every explainShare-th to /v1/explain.
func inlineOps(g *gen, perClass int) []op {
	var ops []op
	seen := map[string]bool{}
	for _, class := range goalClasses {
		n := 0
		for i := 0; n < perClass; i++ {
			in := g.classInstance(class, i)
			for _, gs := range in.goals {
				body := marshal(serve.ImpliesRequest{Schema: in.schemaLines(), Sigma: in.sigmaLines(),
					Goal: gs.text, Finite: gs.finite, Budget: gs.budget})
				if n == perClass || seen[string(body)] {
					continue
				}
				seen[string(body)] = true
				kind, path := opImplies, "/v1/implies"
				if n%explainShare == explainShare-1 {
					kind, path = opExplain, "/v1/explain"
				}
				ops = append(ops, op{kind: kind, url: mustURL(path), goals: 1, class: class,
					want: [][]string{{gs.want}}, ref: -1, body: body})
				n++
			}
		}
	}
	return ops
}

// inlineHot: 384 distinct requests, every one sent once in the warm-up
// (each a cache miss, checked against the oracle), then rounds of 2048
// skewed draws that all hit the answer cache. Each class gets a quarter
// of the draws; within a class the weights fall off with rank, and the
// draw counts are fixed per round, so the mix is the same every round.
func inlineHot(seed uint64) (*workload, error) {
	g := newGen(seed, 1, "")
	pool := inlineOps(g, hotPerClass)
	w := &workload{name: "inline_hot", warm: pool, nrefs: len(pool)}
	for i := range pool {
		pool[i].ref = i
	}
	weights := make([]float64, hotPerClass)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -hotSkew)
		sum += weights[i]
	}
	perClass := hotRound / len(goalClasses)
	counts := apportion(weights, sum, perClass)
	for c := range goalClasses {
		for i, n := range counts {
			for k := 0; k < n; k++ {
				w.round = append(w.round, pool[c*hotPerClass+i])
			}
		}
	}
	g.r.Shuffle(len(w.round), func(i, j int) { w.round[i], w.round[j] = w.round[j], w.round[i] })
	return w, nil
}

// apportion splits total draws over weights by largest remainder, so
// the counts sum to total exactly.
func apportion(weights []float64, sum float64, total int) []int {
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := total
	for i, wt := range weights {
		exact := wt / sum * float64(total)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// inlineCold: 256 templates of the same class mix whose every relation
// and attribute name carries a placeholder; each request stamps a fresh
// id into it, so no request repeats a fingerprint or an engine shape.
// A round sends every template four times in a seeded order; one
// warm-up round fills the 1024-entry cache, so the window evicts on
// every insert.
func inlineCold(seed uint64) (*workload, error) {
	g := newGen(seed, 2, stampPlaceholder)
	tmpl := inlineOps(g, coldPerClass)
	for i := range tmpl {
		tmpl[i].stamps = placeholderOffsets(tmpl[i].body)
		if len(tmpl[i].stamps) == 0 {
			return nil, fmt.Errorf("template %d has no name placeholder", i)
		}
	}
	w := &workload{name: "inline_cold"}
	for k := 0; k < coldCopies; k++ {
		w.round = append(w.round, tmpl...)
	}
	g.r.Shuffle(len(w.round), func(i, j int) { w.round[i], w.round[j] = w.round[j], w.round[i] })
	w.warm = w.round
	return w, nil
}

func placeholderOffsets(body []byte) []int {
	var out []int
	for off := 0; ; {
		i := bytes.Index(body[off:], []byte(stampPlaceholder))
		if i < 0 {
			return out
		}
		out = append(out, off+i)
		off += i + len(stampPlaceholder)
	}
}

// named schema set of named_rw.
const (
	appChain     = 12 // R(A0..A11) with the FD chain A0 -> A1 -> … -> A11
	appGoals     = 32
	indGoals     = 32
	batchGoals   = 24
	wideWidth    = 24
	spiralDepth  = 4
	spiralBudget = 256
	opsPerEdit   = 32 // one edit in 32 requests
)

// appDocs builds the edited schema "app": the FD chain over R plus four
// fixed back and side FDs, and a relation Z no goal reads. Its four
// versions form the edit cycle v0 → v1 (add Z: P -> Q, untouched) → v2
// (drop the chain link A5 -> A6, the goals' own component) → v3 (drop
// Z's FD, untouched) → v0 (restore the link). The schema and its 32
// goals are fixed: which cached answers an edit invalidates, and so how
// many engine runs a round makes, must not depend on the seed.
func appDocs() (docs [4]*instance, goals []goalSpec, wants [][]string) {
	attrs := make([]string, appChain)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i)
	}
	a := func(is ...int) []string {
		out := make([]string, len(is))
		for k, i := range is {
			out[k] = attrs[i]
		}
		return out
	}
	base := &instance{class: "app", rels: []relDecl{{"R", attrs}, {"Z", []string{"P", "Q"}}}}
	for i := 0; i+1 < appChain; i++ {
		base.fds = append(base.fds, fdep{"R", a(i), a(i + 1)})
	}
	base.fds = append(base.fds, fdep{"R", a(11), a(8)}, fdep{"R", a(4), a(1)},
		fdep{"R", a(2, 9), a(0)}, fdep{"R", a(7, 1), a(10)})
	const link = 5
	zfd := fdep{"Z", []string{"P"}, []string{"Q"}}
	without := func(fds []fdep, skip int) []fdep {
		return append(append([]fdep{}, fds[:skip]...), fds[skip+1:]...)
	}
	version := func(fds []fdep) *instance {
		return &instance{class: "app", rels: base.rels, fds: fds}
	}
	docs[0] = base
	docs[1] = version(append(append([]fdep{}, base.fds...), zfd))
	docs[2] = version(append(without(base.fds, link), zfd))
	docs[3] = version(without(base.fds, link))
	for k := 0; len(goals) < appGoals; k++ {
		i, j := k%appChain, (k%appChain+[]int{5, 1, 8}[k/appChain])%appChain
		lhs := a(i)
		if k%4 == 3 {
			lhs = a(i, (i+6)%appChain)
		}
		if indexOf(lhs, attrs[j]) >= 0 {
			continue
		}
		goal := fdep{"R", lhs, a(j)}
		goals = append(goals, goalSpec{text: fdText(goal)})
		row := make([]string, len(docs))
		for v, d := range docs {
			row[v] = verdict(fdImplied(d.fds, goal))
		}
		wants = append(wants, row)
	}
	return docs, goals, wants
}

// namedRW: six registered schemas — the edited FD chain "app", an IND
// set, the Proposition 4.1–4.3 instances, the wide-FD tableau, the
// unary cycle and the budgeted spiral — then rounds of batches and
// single named goals with one edit of "app" in every 32 requests. A
// round is the four-edit cycle of app's versions (128 requests), so
// every round starts and ends at version 0.
func namedRW(seed uint64) (*workload, error) {
	g := newGen(seed, 3, "")
	docs, appGs, appWants := appDocs()
	schemas := []struct {
		name string
		in   *instance
	}{
		{"app", docs[0]},
		{"inds", g.indInstance(2, indGoals)},
		{"props", merge("props", g.prop41("1", 1, true), g.prop42("2", 2), g.prop43("3", 3))},
		{"wide", g.wideFD("", wideWidth)},
		{"unary", g.unaryInstance(3)},
		{"spiral", g.spiral(spiralDepth, spiralBudget)},
	}
	w := &workload{name: "named_rw"}
	put := func(name string, in *instance) op {
		return op{kind: opPut, url: mustURL("/v1/schemas/" + name), class: name, ref: -1,
			body: marshal(serve.SchemaPutRequest{Schema: in.schemaLines(), Sigma: in.sigmaLines()})}
	}
	for _, s := range schemas {
		w.setup = append(w.setup, put(s.name, s.in))
	}

	refs := map[string]int{}
	single := func(name string, gs goalSpec, want []string) op {
		o := op{kind: opImplies, url: mustURL("/v1/implies"), goals: 1, class: name, ref: -1,
			body: marshal(serve.ImpliesRequest{SchemaName: name, Goal: gs.text, Finite: gs.finite, Budget: gs.budget})}
		if name == "app" {
			for _, v := range want {
				o.want = append(o.want, []string{v})
			}
			return o
		}
		o.want = [][]string{want}
		// Answers of unedited schemas never change, so every repeat —
		// a cache hit unless the goal is never cached — must match the
		// first answer byte for byte.
		if want[0] != "unknown" {
			if _, ok := refs[string(o.body)]; !ok {
				refs[string(o.body)] = len(refs)
			}
			o.ref = refs[string(o.body)]
		}
		return o
	}
	goalsOf := func(name string) (specs []goalSpec, wants [][]string) {
		if name == "app" {
			return appGs, appWants
		}
		for _, s := range schemas {
			if s.name == name {
				for _, gs := range s.in.goals {
					specs = append(specs, gs)
					wants = append(wants, []string{gs.want})
				}
			}
		}
		return specs, wants
	}
	// batch draws goals of one mode that the answer cache keys apart: a
	// batch's goals run concurrently, and two goals with one fingerprint
	// would make cache counts depend on scheduling.
	batches := 0
	batch := func(name string, size int) op {
		specs, wants := goalsOf(name)
		batches++
		finite := batches%2 == 0
		modeFree := name == "app" || name == "inds" // FD-only and IND-only: both modes agree
		o := op{kind: opBatch, url: mustURL("/v1/batch"), class: name, ref: -1}
		nv := len(wants[0])
		o.want = make([][]string, nv)
		var texts []string
		seen := map[string]bool{}
		for _, i := range g.r.Perm(len(specs)) {
			gs := specs[i]
			key := canonical(gs.text)
			if len(texts) == size || seen[key] || (!modeFree && gs.finite != finite) {
				continue
			}
			seen[key] = true
			texts = append(texts, gs.text)
			for v := 0; v < nv; v++ {
				o.want[v] = append(o.want[v], wants[i][v])
			}
		}
		o.goals = len(texts)
		o.body = marshal(serve.BatchRequest{SchemaName: name, Goals: texts, Finite: finite})
		return o
	}
	// Single goals walk a seeded permutation of each schema's goals, so
	// every goal is asked about equally often whatever the seed.
	perms, next := map[string][]int{}, map[string]int{}
	nextSingle := func(name string, n int) int {
		if next[name]%n == 0 {
			perms[name] = g.r.Perm(n)
		}
		next[name]++
		return perms[name][(next[name]-1)%n]
	}
	// app batches ask all of app's goals, so which answers an edit
	// invalidates are asked again does not depend on the seed.
	mix := []struct {
		name                   string
		batches, size, singles int
	}{
		{"app", 3, appGoals, 6}, {"inds", 3, batchGoals, 5}, {"props", 2, batchGoals, 4},
		{"wide", 0, 0, 2}, {"unary", 0, 0, 4}, {"spiral", 0, 0, 2},
	}
	for edit := 0; edit < len(docs); edit++ {
		next := (edit + 1) % len(docs)
		e := put("app", docs[next])
		e.putDoc, e.untouched = next, edit%2 == 0
		w.round = append(w.round, e)
		var reads []op
		for _, m := range mix {
			for i := 0; i < m.batches; i++ {
				reads = append(reads, batch(m.name, m.size))
			}
			specs, wants := goalsOf(m.name)
			for i := 0; i < m.singles; i++ {
				k := nextSingle(m.name, len(specs))
				reads = append(reads, single(m.name, specs[k], wants[k]))
			}
		}
		if len(reads) != opsPerEdit-1 {
			return nil, fmt.Errorf("named_rw mix has %d reads per edit, want %d", len(reads), opsPerEdit-1)
		}
		g.r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		w.round = append(w.round, reads...)
	}
	w.warm = w.round
	w.nrefs = len(refs)
	return w, nil
}

// canonical is a goal as the answer cache tells goals apart: the sides
// of an FD and the column pairs of an IND are sets.
func canonical(text string) string {
	if l, r, ok := strings.Cut(text, " <= "); ok {
		lrel, lattrs := splitProjection(l)
		rrel, rattrs := splitProjection(r)
		pairs := make([]string, len(lattrs))
		for i := range lattrs {
			pairs[i] = lattrs[i] + "=" + rattrs[i]
		}
		sort.Strings(pairs)
		return lrel + "<=" + rrel + ":" + strings.Join(pairs, ",")
	}
	if rel, rest, ok := strings.Cut(text, ": "); ok {
		lhs, rhs, _ := strings.Cut(rest, " -> ")
		return rel + ":" + sortedList(lhs) + "->" + sortedList(rhs)
	}
	return text
}

func splitProjection(s string) (string, []string) {
	rel, attrs, _ := strings.Cut(strings.TrimSuffix(s, "]"), "[")
	return rel, strings.Split(attrs, ", ")
}

func sortedList(s string) string {
	xs := strings.Split(s, ", ")
	sort.Strings(xs)
	return strings.Join(xs, ",")
}
