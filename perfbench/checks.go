package main

import (
	"fmt"
	"time"

	"bpi/internal/cert"
	"bpi/internal/lts"
	"bpi/internal/parser"
	"bpi/internal/refine"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// maxStates bounds every LTS the checks build; the largest here (the
// protocols' joint LTSs) stays far below it.
const maxStates = 1 << 20

// checkEngine runs the whole-run checks of an engine workload against the
// verdicts of one round: each p's autonomous state count must match its
// closed form, and partition refinement on the joint autonomous LTS of
// (p, q) must agree with the known answer and with the pair engine. With
// layers set it also times the syntax and semantics layers over every
// state of those LTSs.
func checkEngine(qs []query, related []bool, rep *report, layers bool) (*layerTimes, error) {
	sys := semantics.NewSystem(nil)
	lay := &layerTimes{}
	var states []syntax.Proc
	for i, q := range qs {
		p, err := parser.Parse(q.p)
		if err != nil {
			return nil, err
		}
		r, err := parser.Parse(q.q)
		if err != nil {
			return nil, err
		}
		if q.states > 0 {
			g, err := lts.Explore(sys, []syntax.Proc{p}, lts.Options{AutonomousOnly: true, MaxStates: maxStates})
			switch {
			case err != nil:
				rep.wrong("%s: exploring p: %v", q.name, err)
			case g.Truncated || g.NumStates() != q.states:
				rep.wrong("%s: p has %d states, closed form %d", q.name, g.NumStates(), q.states)
			}
		}
		g, err := lts.Explore(sys, []syntax.Proc{p, r}, lts.Options{AutonomousOnly: true, MaxStates: maxStates})
		if err != nil || g.Truncated {
			rep.wrong("%s: joint LTS: err=%v truncated=%t", q.name, err, g != nil && g.Truncated)
			continue
		}
		ok, err := refineVerdict(g, q.rel, q.weak)
		switch {
		case err != nil:
			rep.wrong("%s: refinement: %v", q.name, err)
		case ok != q.want:
			rep.wrong("%s: refinement says %t, known answer %t", q.name, ok, q.want)
		case ok != related[i]:
			rep.wrong("%s: refinement says %t, pair engine %t", q.name, ok, related[i])
		}
		lay.states += float64(g.NumStates())
		for _, st := range g.States {
			states = append(states, st.Proc)
		}
	}
	if layers {
		lay.measure(sys, states)
	}
	return lay, nil
}

// refineVerdict decides rel on the joint LTS g (roots 0 and 1) by
// partition refinement, the engine independent of the pair engine.
func refineVerdict(g *lts.Graph, rel string, weak bool) (bool, error) {
	switch {
	case rel == "step" && !weak:
		return refine.StrongStep(g)
	case rel == "barbed" && !weak:
		return refine.StrongBarbed(g)
	case rel == "step":
		return refine.WeakStep(g)
	case rel == "barbed":
		return refine.WeakBarbed(g)
	}
	return false, fmt.Errorf("no refinement for relation %q", rel)
}

// layerTimes are the syntax, semantics and LTS layer figures, timed
// around calls into those modules' public functions.
type layerTimes struct {
	keyS, simplifyS, stepsS float64
	transitions, states     float64
}

// measure times System.Steps over every state, then Simplify over every
// state and transition target, then Key over every simplified term.
func (l *layerTimes) measure(sys *semantics.System, states []syntax.Proc) {
	var terms []syntax.Proc
	start := time.Now()
	for _, p := range states {
		ts, err := sys.Steps(p)
		if err != nil {
			continue
		}
		for _, t := range ts {
			terms = append(terms, t.Target)
		}
	}
	l.stepsS = seconds(time.Since(start))
	l.transitions = float64(len(terms))
	terms = append(terms, states...)
	simplified := make([]syntax.Proc, len(terms))
	start = time.Now()
	for i, p := range terms {
		simplified[i] = syntax.Simplify(p)
	}
	l.simplifyS = seconds(time.Since(start))
	keyBytes := 0
	start = time.Now()
	for _, p := range simplified {
		keyBytes += len(syntax.Key(p))
	}
	l.keyS = seconds(time.Since(start))
}

func (l *layerTimes) report(rep *report) {
	rep.set("syntax.key_s", "s", l.keyS)
	rep.set("syntax.simplify_s", "s", l.simplifyS)
	rep.set("semantics.steps_s", "s", l.stepsS)
	rep.set("semantics.transitions", "count", l.transitions)
	rep.set("lts.states", "count", l.states)
}

// termKey is the key of a term's alpha-class after simplification, the
// key the daemon's verdict cache and the ledger give each side of a pair.
func termKey(p syntax.Proc) string { return syntax.Key(syntax.Simplify(p)) }

// certAnswers checks that c answers the question asked: the relation,
// weakness and verdict asked for, about the terms whose keys are kp and kq,
// in that order. It returns "" when it does.
func certAnswers(c *cert.Certificate, rel string, weak, want bool, kp, kq string) string {
	switch {
	case c.Relation != rel || c.Weak != weak:
		return fmt.Sprintf("certificate is for %s weak=%t, asked %s weak=%t", c.Relation, c.Weak, rel, weak)
	case c.Related != want:
		return fmt.Sprintf("certificate claims related=%t, known answer %t", c.Related, want)
	}
	for _, side := range []struct{ name, src, key string }{{"p", c.P, kp}, {"q", c.Q, kq}} {
		t, err := parser.Parse(side.src)
		if err != nil {
			return fmt.Sprintf("certificate term %s does not parse: %v", side.name, err)
		}
		if termKey(t) != side.key {
			return fmt.Sprintf("certificate term %s is not the term asked", side.name)
		}
	}
	return ""
}
