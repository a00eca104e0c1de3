package main

import (
	"fmt"

	"bpi/internal/names"
	"bpi/internal/protocols"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// runMeshStep decides strong step bisimilarity of one gossip mesh against
// a permutation of its parallel components: one large cold query.
func runMeshStep(opt options, rep *report) error {
	n := 18
	if opt.tiny {
		n = 8
	}
	return runEngine(meshQueries(n, opt.seed), opt, rep)
}

// meshQueries builds stress.Mesh(n) with its station channels renamed by a
// seeded permutation, and compares two seeded rotations of its parallel
// components. Injective renaming and permutation change neither the state
// count nor the verdict: the pair is related by construction.
func meshQueries(n int, seed int64) []query {
	rng := seededRand(seed)
	perm := rng.Perm(n)
	sub := names.Subst{}
	for i, j := range perm {
		sub[names.Name(fmt.Sprintf("m%d", i))] = names.Name(fmt.Sprintf("m%d", j))
	}
	p := syntax.Apply(stress.Mesh(n), sub)
	k1 := rng.Intn(n)
	k2 := k1 + 1 + rng.Intn(n-1)
	return []query{{
		name: fmt.Sprintf("mesh-%d", n),
		p:    syntax.String(rotate(p, k1)),
		q:    syntax.String(rotate(p, k2)),
		rel:  "step", want: true, cold: true,
		states: meshStates(n),
	}}
}

// meshStates is the closed form of a mesh's state count: Fibonacci in the
// station count, s(1) = 2, s(2) = 3, s(n) = s(n-1) + s(n-2).
func meshStates(n int) int {
	a, b := 2, 3
	if n == 1 {
		return a
	}
	for i := 2; i < n; i++ {
		a, b = b, a+b
	}
	return b
}

// runProtocols decides the top rung of each algorithm family of the
// protocols ladder (gossip star, election, multicast), then the whole
// catalogue, each on a fresh checker.
func runProtocols(opt options, rep *report) error {
	return runEngine(protocolQueries(opt.tiny, opt.seed), opt, rep)
}

// ladderRungs returns one rung of each algorithm family of
// protocols.Ladder(), in ladder order: the last (largest), or with tiny
// the first (smallest).
func ladderRungs(tiny bool) []protocols.Scenario {
	var out []protocols.Scenario
	at := map[string]int{}
	for _, s := range protocols.Ladder() {
		i, seen := at[s.Algo]
		switch {
		case !seen:
			at[s.Algo] = len(out)
			out = append(out, s)
		case !tiny:
			out[i] = s
		}
	}
	return out
}

// protocolQueries turns the scenarios into queries with seeded rotations
// of the implementation's and the specification's parallel components.
func protocolQueries(tiny bool, seed int64) []query {
	top := ladderRungs(tiny)
	rng := seededRand(seed)
	var qs []query
	for i, s := range append(top, protocols.Catalogue()...) {
		qs = append(qs, query{
			cold: i < len(top),
			name: s.Name,
			p:    syntax.String(rotate(s.Impl, rng.Intn(16))),
			q:    syntax.String(rotate(s.Spec, rng.Intn(16))),
			rel:  string(s.Rel), weak: s.Weak,
			want:   s.WantEquiv,
			states: protocolStates(s),
		})
	}
	return qs
}

// protocolStates recomputes the state count of a healthy scenario's
// implementation from the parameters in its name; 0 for fault variants,
// whose counts have no closed form.
func protocolStates(s protocols.Scenario) int {
	if s.Fault.Kind != protocols.FaultNone {
		return 0
	}
	var n, k int
	switch {
	case scan(s.Name, "gossip/line-%d", &n):
		return n + 2
	case scan(s.Name, "gossip/star-%d", &n):
		return 1 + 1<<n
	case scan(s.Name, "gossip/tree-%dx%d", &k, &n):
		// Order ideals of a complete k-ary tree of depth n:
		// J(0) = 2, J(d) = 1 + J(d-1)^k.
		j := 2
		for d := 1; d <= n; d++ {
			prod := 1
			for c := 0; c < k; c++ {
				prod *= j
			}
			j = 1 + prod
		}
		return j
	case scan(s.Name, "election-%d", &n):
		return n*(1<<n-1) + 2
	case scan(s.Name, "multicast-%d", &n):
		return 1<<(n+1) - 1
	case scan(s.Name, "bbc-%d", &n):
		return n + 3
	case scan(s.Name, "tokenring-%d", &n):
		return n + 2
	}
	return 0
}

// scan reports whether name matches format exactly, filling args.
func scan(name, format string, args ...any) bool {
	if _, err := fmt.Sscanf(name, format, args...); err != nil {
		return false
	}
	return fmt.Sprintf(format, deref(args)...) == name
}

func deref(args []any) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = *a.(*int)
	}
	return out
}
