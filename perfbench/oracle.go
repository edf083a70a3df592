package main

import "strings"

// The oracles decide the instances the generator builds with code that
// shares nothing with the program under test: they work on the
// benchmark's own dependency types, never on internal/deps, and a
// verdict the server returns is counted correct only when it agrees
// with them (or with a verdict known by construction, see gen.go).

// fdep is a functional dependency rel: lhs -> rhs.
type fdep struct {
	rel      string
	lhs, rhs []string
}

// idep is an inclusion dependency lrel[x] <= rrel[y].
type idep struct {
	lrel string
	x    []string
	rrel string
	y    []string
}

// attrClosure is the Armstrong closure of x under the FDs of rel: the
// classical fixpoint that adds a right-hand side whenever its left-hand
// side is already inside.
func attrClosure(fds []fdep, rel string, x []string) map[string]bool {
	c := make(map[string]bool, len(x))
	for _, a := range x {
		c[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fds {
			if f.rel != rel || !containsAll(c, f.lhs) {
				continue
			}
			for _, a := range f.rhs {
				if !c[a] {
					c[a] = true
					changed = true
				}
			}
		}
	}
	return c
}

// fdImplied reports whether the FDs imply g (for FDs alone finite and
// unrestricted implication coincide).
func fdImplied(fds []fdep, g fdep) bool {
	return containsAll(attrClosure(fds, g.rel, g.lhs), g.rhs)
}

func containsAll(set map[string]bool, xs []string) bool {
	for _, a := range xs {
		if !set[a] {
			return false
		}
	}
	return true
}

// indImplied decides IND implication by breadth-first search over the
// expressions R[X] derivable from the goal's left side: IND1 is the
// start node itself, each edge is one member of Σ projected and
// permuted onto the current attribute sequence (IND2), and a path is a
// chain of IND3 steps. By the completeness of IND1–IND3 the goal is
// implied exactly when its right side is reachable.
func indImplied(inds []idep, g idep) bool {
	type node struct{ rel, attrs string }
	key := func(rel string, xs []string) node { return node{rel, strings.Join(xs, ",")} }
	target := key(g.rrel, g.y)
	start := key(g.lrel, g.x)
	if start == target {
		return true
	}
	type state struct {
		rel   string
		attrs []string
	}
	seen := map[node]bool{start: true}
	queue := []state{{g.lrel, g.x}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range inds {
			if d.lrel != cur.rel {
				continue
			}
			next := make([]string, 0, len(cur.attrs))
			for _, a := range cur.attrs {
				i := indexOf(d.x, a)
				if i < 0 {
					break
				}
				next = append(next, d.y[i])
			}
			if len(next) != len(cur.attrs) {
				continue
			}
			n := key(d.rrel, next)
			if n == target {
				return true
			}
			if !seen[n] {
				seen[n] = true
				queue = append(queue, state{d.rrel, next})
			}
		}
	}
	return false
}

func indexOf(xs []string, a string) int {
	for i, x := range xs {
		if x == a {
			return i
		}
	}
	return -1
}

func verdict(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
