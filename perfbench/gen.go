package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// The seeded instance generator. Every instance carries its goals with
// the verdict the benchmark expects, computed by the oracles (oracle.go)
// or known by construction from the paper:
//
//   - fd: random FDs over one relation; Armstrong closure decides.
//   - ind: random INDs over a few relations; the IND1–IND3 search decides.
//   - unary: the finite ≠ unrestricted cycle R: A1 -> A2 -> … -> Ak with
//     R[A1] <= R[Ak]. On finite databases the FDs and the IND force
//     |A1| = … = |Ak|, so every FD and the IND reverse; unrestricted,
//     unary INDs and FDs do not interact (Kanellakis–Cosmadakis–Vardi),
//     so the closure and the IND search decide those goals separately.
//   - chase: Propositions 4.1–4.3 and the wide-FD tableau, whose
//     consequences the paper proves, plus goals with a two-tuple
//     counterexample (noted at each goal).
//   - spiral: the IND spiral never reaches a fixpoint, so under a tuple
//     budget its verdict is unknown.

type relDecl struct {
	name  string
	attrs []string
}

type goalSpec struct {
	text   string
	finite bool
	want   string // "yes", "no" or "unknown"
	budget int
}

type instance struct {
	class string
	rels  []relDecl
	fds   []fdep
	inds  []idep
	goals []goalSpec
}

func (in *instance) schemaLines() []string {
	out := make([]string, len(in.rels))
	for i, r := range in.rels {
		out[i] = r.name + "(" + strings.Join(r.attrs, ", ") + ")"
	}
	return out
}

func (in *instance) sigmaLines() []string {
	var out []string
	for _, f := range in.fds {
		out = append(out, fdText(f))
	}
	for _, d := range in.inds {
		out = append(out, indText(d))
	}
	return out
}

// merge returns one instance holding the relations, Σ and goals of all
// parts (their relation names must be disjoint).
func merge(class string, parts ...*instance) *instance {
	out := &instance{class: class}
	for _, p := range parts {
		out.rels = append(out.rels, p.rels...)
		out.fds = append(out.fds, p.fds...)
		out.inds = append(out.inds, p.inds...)
		out.goals = append(out.goals, p.goals...)
	}
	return out
}

func fdText(f fdep) string {
	return f.rel + ": " + strings.Join(f.lhs, ", ") + " -> " + strings.Join(f.rhs, ", ")
}

func indText(d idep) string {
	return d.lrel + "[" + strings.Join(d.x, ", ") + "] <= " + d.rrel + "[" + strings.Join(d.y, ", ") + "]"
}

func rdText(rel string, x, y []string) string {
	return rel + "[" + strings.Join(x, ", ") + " == " + strings.Join(y, ", ") + "]"
}

// gen draws instances from one seeded stream. sfx is appended to every
// relation and attribute name: empty for fixed names, the stamp
// placeholder for templates whose names are made fresh per request.
type gen struct {
	r   *rand.Rand
	sfx string
}

func newGen(seed uint64, stream uint64, sfx string) *gen {
	return &gen{r: rand.New(rand.NewPCG(seed, stream)), sfx: sfx}
}

func (g *gen) nm(base string) string { return base + g.sfx }

func (g *gen) names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.nm(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// pick returns k distinct elements of xs in random order.
func (g *gen) pick(xs []string, k int) []string {
	p := g.r.Perm(len(xs))
	out := make([]string, k)
	for i := range out {
		out[i] = xs[p[i]]
	}
	return out
}

// pickOutside returns one element of xs not in avoid.
func (g *gen) pickOutside(xs, avoid []string) string {
	for {
		a := xs[g.r.IntN(len(xs))]
		if indexOf(avoid, a) < 0 {
			return a
		}
	}
}

// fdInstance: random FDs over R(A0..An-1) and ng goals; half aim inside
// the closure, half anywhere. The shape (n, |Σ|, modes) follows the
// instance index i, the content the seed.
func (g *gen) fdInstance(i, ng int) *instance {
	n := 6 + i%7
	rel := g.nm("R")
	attrs := g.names("A", n)
	in := &instance{class: "fd", rels: []relDecl{{rel, attrs}}}
	for j := 0; j < n+n/2; j++ {
		lhs := g.pick(attrs, 1+g.r.IntN(2))
		in.fds = append(in.fds, fdep{rel, lhs, []string{g.pickOutside(attrs, lhs)}})
	}
	for j := 0; j < ng; j++ {
		lhs := g.pick(attrs, 1+g.r.IntN(2))
		rhs := g.pickOutside(attrs, lhs)
		if j%2 == 0 {
			var inside []string
			for _, a := range attrs {
				if attrClosure(in.fds, rel, lhs)[a] && indexOf(lhs, a) < 0 {
					inside = append(inside, a)
				}
			}
			if len(inside) > 0 {
				rhs = inside[g.r.IntN(len(inside))]
			}
		}
		goal := fdep{rel, lhs, []string{rhs}}
		in.goals = append(in.goals, goalSpec{text: fdText(goal), finite: j%2 == 1,
			want: verdict(fdImplied(in.fds, goal))})
	}
	return in
}

// indInstance: random INDs of width 1–3 over 3–5 relations and ng
// goals; half follow a random walk through Σ (usually implied), half are
// random.
func (g *gen) indInstance(i, ng int) *instance {
	k := 3 + i%3
	in := &instance{class: "ind"}
	for j := 0; j < k; j++ {
		in.rels = append(in.rels, relDecl{g.nm(fmt.Sprintf("T%d", j)), g.names("A", 3+j%2)})
	}
	randomIND := func(maxWidth int) idep {
		l, r := in.rels[g.r.IntN(k)], in.rels[g.r.IntN(k)]
		w := 1 + g.r.IntN(min(maxWidth, len(l.attrs), len(r.attrs)))
		return idep{l.name, g.pick(l.attrs, w), r.name, g.pick(r.attrs, w)}
	}
	for j := 0; j < k+k/2+1; j++ {
		in.inds = append(in.inds, randomIND(3))
	}
	for j := 0; j < ng; j++ {
		goal := randomIND(2)
		if j%2 == 0 {
			goal = g.walk(in.inds)
		}
		in.goals = append(in.goals, goalSpec{text: indText(goal), finite: j%2 == 1,
			want: verdict(indImplied(in.inds, goal))})
	}
	return in
}

// walk projects a random member of Σ and follows up to two more members
// from its right side.
func (g *gen) walk(inds []idep) idep {
	d := inds[g.r.IntN(len(inds))]
	pos := g.r.Perm(len(d.x))[:1+g.r.IntN(len(d.x))]
	goal := idep{lrel: d.lrel, rrel: d.rrel}
	for _, p := range pos {
		goal.x = append(goal.x, d.x[p])
		goal.y = append(goal.y, d.y[p])
	}
	for step := 0; step < 2; step++ {
		for _, o := range g.r.Perm(len(inds)) {
			e := inds[o]
			if e.lrel != goal.rrel {
				continue
			}
			next := make([]string, 0, len(goal.y))
			for _, a := range goal.y {
				if i := indexOf(e.x, a); i >= 0 {
					next = append(next, e.y[i])
				}
			}
			if len(next) == len(goal.y) {
				goal.rrel, goal.y = e.rrel, next
				break
			}
		}
	}
	return goal
}

// unaryInstance: the cardinality cycle U: A1 -> … -> Ak, U[A1] <= U[Ak]
// with an unconstrained attribute E.
func (g *gen) unaryInstance(i int) *instance {
	k := 2 + i%4
	rel := g.nm(fmt.Sprintf("U%d", i))
	as := g.names("A", k)
	e := g.nm("E")
	in := &instance{class: "unary", rels: []relDecl{{rel, append(append([]string{}, as...), e)}}}
	for i := 0; i+1 < k; i++ {
		in.fds = append(in.fds, fdep{rel, []string{as[i]}, []string{as[i+1]}})
	}
	in.inds = []idep{{rel, []string{as[0]}, rel, []string{as[k-1]}}}
	first, last := []string{as[0]}, []string{as[k-1]}
	backFD := fdep{rel, last, first}
	backIND := idep{rel, last, rel, first}
	in.goals = []goalSpec{
		// Finite: the cycle forces equal cardinalities, so both reverse.
		{text: fdText(backFD), finite: true, want: "yes"},
		{text: indText(backIND), finite: true, want: "yes"},
		// Unrestricted: no interaction, the closures decide.
		{text: fdText(backFD), want: verdict(fdImplied(in.fds, backFD))},
		{text: indText(backIND), want: verdict(indImplied(in.inds, backIND))},
		{text: fdText(fdep{rel, first, last}), want: verdict(fdImplied(in.fds, fdep{rel, first, last}))},
		// Two tuples constant on A1..Ak with values 1 and 2 and the same
		// E satisfy Σ and violate E -> A1, finitely.
		{text: fdText(fdep{rel, []string{e}, first}), finite: true, want: "no"},
	}
	return in
}

// prop41 is Proposition 4.1: R[X Y] <= S[T U] and S: T -> U give
// R: X -> Y. Without the FD the goal fails.
func (g *gen) prop41(tag string, i int, withFD bool) *instance {
	a, b := widths(i)
	x, y := g.names("X", a), g.names("Y", b)
	t, u := g.names("T", a), g.names("U", b)
	r, s := g.nm("R"+tag), g.nm("S"+tag)
	in := &instance{class: "chase", rels: []relDecl{{r, cat(x, y)}, {s, cat(t, u)}},
		inds: []idep{{r, cat(x, y), s, cat(t, u)}}}
	if withFD {
		in.fds = []fdep{{s, t, u}}
		// S = R = {(t1, u), (t2, u)} satisfies Σ and violates Y -> X.
		in.goals = append(in.goals, both(fdText(fdep{r, y, x}), "no")...)
	}
	in.goals = append(in.goals, both(fdText(fdep{r, x, y}), verdict(withFD))...)
	return in.withSReverse(s, t, u)
}

// withSReverse adds the goal S: U -> T, refuted in every instance here
// by an empty R and S = {(t1, u), (t2, u)}.
func (in *instance) withSReverse(s string, t, u []string) *instance {
	in.goals = append(in.goals, goalSpec{text: fdText(fdep{s, u, t}), want: "no"})
	return in
}

// prop42 is Proposition 4.2: R[X Y] <= S[T U], R[X Z] <= S[T V] and
// S: T -> U give R[X Y Z] <= S[T U V]. R = S = {(x, y, z)} with y ≠ z
// satisfies Σ and violates R[Y] <= S[V].
func (g *gen) prop42(tag string, i int) *instance {
	a, b := widths(i)
	x, y, z := g.names("X", a), g.names("Y", b), g.names("Z", b)
	t, u, v := g.names("T", a), g.names("U", b), g.names("V", b)
	r, s := g.nm("R"+tag), g.nm("S"+tag)
	in := &instance{class: "chase",
		rels: []relDecl{{r, cat(x, y, z)}, {s, cat(t, u, v)}},
		fds:  []fdep{{s, t, u}},
		inds: []idep{{r, cat(x, y), s, cat(t, u)}, {r, cat(x, z), s, cat(t, v)}}}
	in.goals = append(in.goals, both(indText(idep{r, cat(x, y, z), s, cat(t, u, v)}), "yes")...)
	in.goals = append(in.goals, both(indText(idep{r, y, s, v}), "no")...)
	return in.withSReverse(s, t, u)
}

// prop43 is Proposition 4.3: R[X Y] <= S[T U], R[X Z] <= S[T U] and
// S: T -> U give the RD R[Y = Z].
func (g *gen) prop43(tag string, i int) *instance {
	a, b := widths(i)
	x, y, z := g.names("X", a), g.names("Y", b), g.names("Z", b)
	t, u := g.names("T", a), g.names("U", b)
	r, s := g.nm("R"+tag), g.nm("S"+tag)
	in := &instance{class: "chase",
		rels: []relDecl{{r, cat(x, y, z)}, {s, cat(t, u)}},
		fds:  []fdep{{s, t, u}},
		inds: []idep{{r, cat(x, y), s, cat(t, u)}, {r, cat(x, z), s, cat(t, u)}}}
	in.goals = append(in.goals, both(rdText(r, y, z), "yes")...)
	return in.withSReverse(s, t, u)
}

// wideFD is the wide-FD tableau (benchws.WideFDInstance): P[A, Bi] <=
// Q[X, Y] for every i and Q: X -> Y force B1 = … = Bm. P = {(a, b, …, b)}
// with a ≠ b and Q = {(a, b)} satisfy Σ and violate P[A = B1].
func (g *gen) wideFD(tag string, m int) *instance {
	bs := g.names("B", m)
	a, x, y := g.nm("A"), g.nm("X"), g.nm("Y")
	p, q := g.nm("P"+tag), g.nm("Q"+tag)
	in := &instance{class: "chase",
		rels: []relDecl{{p, cat([]string{a}, bs)}, {q, []string{x, y}}},
		fds:  []fdep{{q, []string{x}, []string{y}}}}
	for _, bi := range bs {
		in.inds = append(in.inds, idep{p, []string{a, bi}, q, []string{x, y}})
	}
	in.goals = append(in.goals, both(rdText(p, bs[:1], bs[m-1:]), "yes")...)
	in.goals = append(in.goals, both(rdText(p, []string{a}, bs[:1]), "no")...)
	return in
}

// spiral is benchws.SpiralInstance: Li[B, C] <= L(i+1 mod k)[A, B]
// pours one fresh tuple per round into the next relation forever, so a
// budgeted chase of L0: A -> C ends unknown.
func (g *gen) spiral(k, budget int) *instance {
	in := &instance{class: "chase",
		rels: []relDecl{{g.nm("M"), []string{"A", "B"}}},
		fds:  []fdep{{g.nm("M"), []string{"A"}, []string{"B"}}}}
	for i := 0; i < k; i++ {
		in.rels = append(in.rels, relDecl{g.nm(fmt.Sprintf("L%d", i)), []string{"A", "B", "C"}})
		in.inds = append(in.inds, idep{g.nm(fmt.Sprintf("L%d", i)), []string{"B", "C"},
			g.nm(fmt.Sprintf("L%d", (i+1)%k)), []string{"A", "B"}})
	}
	in.goals = []goalSpec{{text: g.nm("L0") + ": A -> C", want: "unknown", budget: budget}}
	return in
}

// both poses a goal in both modes; the chase verdicts here hold for
// finite and unrestricted implication alike (yes by derivation, no by a
// finite counterexample).
func both(text, want string) []goalSpec {
	return []goalSpec{{text: text, want: want}, {text: text, finite: true, want: want}}
}

// widths gives the X and Y widths of the i-th Proposition 4.x instance.
func widths(i int) (int, int) { return 1 + i%2, 1 + i/2%2 }

// chaseInstance cycles through the chase constructions; the index in
// the relation names keeps every instance distinct.
func (g *gen) chaseInstance(i int) *instance {
	tag := fmt.Sprint(i)
	switch i % 5 {
	case 0:
		return g.prop41(tag, i/5, true)
	case 1:
		return g.prop41(tag, i/5, false)
	case 2:
		return g.prop42(tag, i/5)
	case 3:
		return g.prop43(tag, i/5)
	default:
		return g.wideFD(tag, 3+i/5%6)
	}
}

// classInstance draws the i-th instance of a goal class.
func (g *gen) classInstance(class string, i int) *instance {
	switch class {
	case "fd":
		return g.fdInstance(i, 4)
	case "ind":
		return g.indInstance(i, 4)
	case "unary":
		return g.unaryInstance(i)
	default:
		return g.chaseInstance(i)
	}
}

// goalClasses is the inline goal-class mix, in equal shares.
var goalClasses = []string{"fd", "ind", "unary", "chase"}

func cat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
