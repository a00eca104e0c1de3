package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/obs"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// query is one equivalence question whose answer is known by construction.
type query struct {
	name string
	// p and q are the compared terms in concrete syntax; setup parses them.
	p, q string
	rel  string // "step" or "barbed"
	weak bool
	want bool
	// cold marks the large queries whose latencies are reported one by
	// one; the catalogue's small queries count only in the round's time.
	cold bool
	// states is the closed-form state count of p's autonomous LTS,
	// recomputed by the runner from the generator's parameters; 0 when the
	// family has no closed form (fault-injected variants).
	states int
}

// built is one query ready to run: parsed terms and a fresh checker.
type built struct {
	q    query
	p, r syntax.Proc
	chk  *equiv.Checker
}

// maxPairs is the pair budget of every engine query: large enough for the
// biggest instance here (about 170k pairs).
const maxPairs = 1 << 20

// setup parses every input from concrete syntax and builds the system and
// one fresh sequential, certifying checker per query.
func setup(qs []query) ([]built, error) {
	sys := semantics.NewSystem(nil)
	out := make([]built, len(qs))
	for i, q := range qs {
		p, err := parser.Parse(q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: parse p: %w", q.name, err)
		}
		r, err := parser.Parse(q.q)
		if err != nil {
			return nil, fmt.Errorf("%s: parse q: %w", q.name, err)
		}
		chk := equiv.NewChecker(sys)
		chk.MaxPairs = maxPairs
		chk.Workers = 1
		chk.Certify = true
		out[i] = built{q: q, p: p, r: r, chk: chk}
	}
	return out, nil
}

func decide(b built) (equiv.Result, error) {
	if b.q.rel == "barbed" {
		return b.chk.Barbed(b.p, b.r, b.q.weak)
	}
	return b.chk.Step(b.p, b.r, b.q.weak)
}

// measureSetup times setup over eleven batches, each long enough (about
// 100 ms) to hold many garbage collections of the small set-up heap and to
// be well above timer resolution, and returns the median time of one
// setup. Every batch starts from a collected heap.
func measureSetup(qs []query) (float64, error) {
	t0 := time.Now()
	if _, err := setup(qs); err != nil {
		return 0, err
	}
	batch := int(100*time.Millisecond/max(time.Since(t0), time.Microsecond)) + 1
	var samples []float64
	for i := 0; i < 11; i++ {
		runtime.GC()
		t := time.Now()
		for j := 0; j < batch; j++ {
			if _, err := setup(qs); err != nil {
				return 0, err
			}
		}
		samples = append(samples, seconds(time.Since(t))/float64(batch))
	}
	return median(samples), nil
}

// round is one pass over every query of a workload on fresh checkers. It
// keeps figures only, not the engine's results, so that no round's
// certificates stay on the heap while later rounds run.
type round struct {
	wall, cpu, verify time.Duration
	latMs             []float64
	related           []bool
	pairs             float64
	stores            []equiv.Stats
	// Filled only when the round ran traced (tracers, certificate sizes)
	// or with memory statistics.
	tracers         []*obs.Tracer
	certBytes       float64
	allocMB, gcRuns float64
}

// runRound decides every query on fresh checkers and verifies every
// certificate. Each query's verdict, error and certificate is checked
// against the known answer and recorded as one operation.
func runRound(qs []query, traced, memstats bool, rep *report) (*round, error) {
	bs, err := setup(qs)
	if err != nil {
		return nil, err
	}
	rd := &round{}
	results := make([]equiv.Result, len(bs))
	if traced {
		rd.tracers = make([]*obs.Tracer, len(bs))
		for i := range bs {
			rd.tracers[i] = obs.New()
			bs[i].chk.Obs = rd.tracers[i]
		}
	}
	// Start every round from a collected heap, so the garbage of the
	// previous round is not charged to this one.
	runtime.GC()
	var ms0 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms0)
	}
	errs := make([]error, len(bs))
	cpu0 := cpuTime()
	start := time.Now()
	for i, b := range bs {
		t := time.Now()
		results[i], errs[i] = decide(b)
		if b.q.cold {
			rd.latMs = append(rd.latMs, millis(time.Since(t)))
		}
	}
	rd.wall = time.Since(start)
	rd.cpu = cpuTime() - cpu0
	if memstats {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rd.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		rd.gcRuns = float64(ms1.NumGC - ms0.NumGC)
	}
	verifyErrs := make([]error, len(bs))
	vstart := time.Now()
	for i, res := range results {
		if errs[i] == nil && res.Cert != nil {
			verifyErrs[i] = cert.Verify(res.Cert)
		}
	}
	rd.verify = time.Since(vstart)
	for i, b := range bs {
		res := results[i]
		rep.op(checkVerdict(b, res, errs[i], verifyErrs[i]))
		rd.related = append(rd.related, res.Related)
		rd.pairs += float64(res.Pairs)
		rd.stores = append(rd.stores, b.chk.Store().Stats())
		if traced && res.Cert != nil {
			if data, err := json.Marshal(res.Cert); err == nil {
				rd.certBytes += float64(len(data))
			}
		}
	}
	return rd, nil
}

// checkVerdict compares one engine answer with the query's known answer,
// and checks that its certificate answers the question asked; it returns
// "" when both hold.
func checkVerdict(b built, res equiv.Result, err, verifyErr error) string {
	q := b.q
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", q.name, err)
	case res.Related != q.want:
		return fmt.Sprintf("%s: related=%t, known answer %t", q.name, res.Related, q.want)
	case res.Cert == nil:
		return fmt.Sprintf("%s: no certificate", q.name)
	case verifyErr != nil:
		return fmt.Sprintf("%s: certificate rejected: %v", q.name, verifyErr)
	}
	if f := certAnswers(res.Cert, q.rel, q.weak, q.want, termKey(b.p), termKey(b.r)); f != "" {
		return q.name + ": " + f
	}
	return ""
}

// runEngine runs an engine workload: the setup measurement, then whole
// rounds until the measured phase has lasted opt.seconds, then the
// independent checks; with opt.trace it alternates untraced and traced
// rounds and reports the per-layer metrics instead.
func runEngine(qs []query, opt options, rep *report) error {
	setupS, err := measureSetup(qs)
	if err != nil {
		return err
	}
	var plain, traced []*round
	start := time.Now()
	for len(plain) == 0 || len(traced) == 0 && opt.trace || time.Since(start).Seconds() < opt.seconds {
		rd, err := runRound(qs, false, opt.trace, rep)
		if err != nil {
			return err
		}
		plain = append(plain, rd)
		if opt.trace {
			rd, err := runRound(qs, true, false, rep)
			if err != nil {
				return err
			}
			traced = append(traced, rd)
		}
	}
	peak := peakRSSMiB()
	fmt.Fprintf(os.Stderr, "perfbench: %d queries per round, %d rounds in %.1fs; untraced round times:",
		len(qs), len(plain)+len(traced), time.Since(start).Seconds())
	for _, rd := range plain {
		fmt.Fprintf(os.Stderr, " %.3f", seconds(rd.wall))
	}
	fmt.Fprintln(os.Stderr)

	lay, err := checkEngine(qs, plain[0].related, rep, opt.trace)
	if err != nil {
		return err
	}
	if !opt.trace {
		var lat []float64
		for _, rd := range plain {
			lat = append(lat, rd.latMs...)
		}
		reportEndToEnd(rep, setupS, plain, lat, peak)
		return nil
	}
	reportEngineLayers(rep, plain, traced, lay)
	return nil
}

// reportEndToEnd sets the end-to-end metrics shared by every workload from
// the run's rounds: each figure is the median over rounds of one round's
// value, except latency, which is taken over every cold query of the run.
func reportEndToEnd(rep *report, setupS float64, rounds []*round, latMs []float64, peak float64) {
	var wall, cpu, verify, rate []float64
	for _, rd := range rounds {
		wall = append(wall, seconds(rd.wall))
		cpu = append(cpu, seconds(rd.cpu))
		verify = append(verify, seconds(rd.verify))
		rate = append(rate, float64(len(rd.related))/seconds(rd.wall))
	}
	rep.set("setup_s", "s", setupS)
	rep.set("verdict_s", "s", median(wall))
	rep.set("verdict_cpu_s", "s", median(cpu))
	rep.set("verify_s", "s", median(verify))
	rep.set("verdicts_per_s", "verdicts/s", median(rate))
	rep.set("latency_p50_ms", "ms", median(latMs))
	rep.set("peak_rss_mb", "MiB", peak)
	fmt.Fprintf(os.Stderr, "perfbench: %d latency samples\n", len(latMs))
}

// reportEngineLayers sets the per-layer metrics of an engine workload: the
// engine's span self times and counters from the traced rounds, memory
// statistics from the untraced ones, and the module timings in lay.
func reportEngineLayers(rep *report, plain, traced []*round, lay *layerTimes) {
	var expand, fixpoint, emit, wallT, wallP, alloc, gcs []float64
	for _, rd := range traced {
		var ex, fx, em time.Duration
		for _, tr := range rd.tracers {
			e, f, m := engineSpans(tr)
			ex, fx, em = ex+e, fx+f, em+m
		}
		expand = append(expand, seconds(ex))
		fixpoint = append(fixpoint, seconds(fx))
		emit = append(emit, seconds(em))
		wallT = append(wallT, seconds(rd.wall))
	}
	for _, rd := range plain {
		wallP = append(wallP, seconds(rd.wall))
		alloc = append(alloc, rd.allocMB)
		gcs = append(gcs, rd.gcRuns)
	}
	var terms, iHit, iMiss, dHit, dMiss float64
	for _, st := range plain[0].stores {
		terms += float64(st.Terms)
		iHit += float64(st.InternHits)
		iMiss += float64(st.InternMisses)
		dHit += float64(st.DerivationHits)
		dMiss += float64(st.DerivationMisses)
	}
	rep.set("equiv.expand_s", "s", median(expand))
	rep.set("equiv.fixpoint_s", "s", median(fixpoint))
	rep.set("equiv.cert_emit_s", "s", median(emit))
	rep.set("equiv.pairs", "count", plain[0].pairs)
	rep.set("equiv.alloc_mb", "MiB", median(alloc))
	rep.set("equiv.gc_cycles", "count", median(gcs))
	rep.set("store.terms", "count", terms)
	rep.set("store.intern_hit_ratio", "ratio", ratio(iHit, iMiss))
	rep.set("store.deriv_hit_ratio", "ratio", ratio(dHit, dMiss))
	rep.set("cert.bytes", "bytes", traced[0].certBytes)
	rep.set("trace.overhead_s", "s", median(wallT)-median(wallP))
	lay.report(rep)
	setServiceZero(rep)
}

func ratio(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// engineSpans sums the pair engine's spans in tr: expand and fixpoint
// durations, and the self time of equiv.run (its duration minus its
// explore and fixpoint children), which is where certificates are emitted.
func engineSpans(tr *obs.Tracer) (expand, fixpoint, runSelf time.Duration) {
	var walk func(n *obs.Node)
	walk = func(n *obs.Node) {
		d := time.Duration(n.DurMicros * float64(time.Microsecond))
		switch n.Name {
		case "equiv.expand":
			expand += d
		case "equiv.fixpoint":
			fixpoint += d
		case "equiv.run":
			runSelf += d
			for _, c := range n.Children {
				runSelf -= time.Duration(c.DurMicros * float64(time.Microsecond))
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range tr.Tree() {
		walk(n)
	}
	return expand, fixpoint, runSelf
}

// rotate permutes p's top-level parallel components by k places; parallel
// composition is commutative and associative under every relation, so the
// result is equivalent to p by construction.
func rotate(p syntax.Proc, k int) syntax.Proc {
	parts := syntax.ParList(p)
	if len(parts) < 2 {
		return p
	}
	k %= len(parts)
	return syntax.Group(append(append([]syntax.Proc{}, parts[k:]...), parts[:k]...)...)
}

// seededRand returns the generator of a workload's inputs.
func seededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
