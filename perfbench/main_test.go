package main

import (
	"encoding/json"
	"os"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/service"
)

// spec is the part of BENCHMARK.json the tests check the runner against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTinyRunsPrintEveryMetric runs every workload at smoke-test size,
// untraced and traced, and checks that each prints every metric
// BENCHMARK.json names for that mode, with its unit, and no failure.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for _, name := range workloadNames() {
		run := workloads[name]
		for _, trace := range []bool{false, true} {
			rep := newReport()
			opt := options{seed: 7, seconds: 0.01, trace: trace, tiny: true, workdir: t.TempDir()}
			if err := run(opt, rep); err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d problems=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, rep.problems)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s not printed", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s has unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, BENCHMARK.json names %d",
					name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestMislabelledPairCountsAsFailed flips the known answer of one of two
// queries and checks that every round counts it, and only it, as a failed
// operation, and that the independent refinement check flags the run.
func TestMislabelledPairCountsAsFailed(t *testing.T) {
	qs := append(meshQueries(6, 1), meshQueries(5, 2)...)
	qs[0].want = false
	rep := newReport()
	if err := runEngine(qs, options{seconds: 0.01}, rep); err != nil {
		t.Fatal(err)
	}
	res := rep.result()
	if res.Attempted < 2 || res.Failed*2 != res.Attempted {
		t.Errorf("attempted=%d failed=%d, want one failure per round of two queries", res.Attempted, res.Failed)
	}
	if res.Correct {
		t.Error("refinement disagreed with the mislabelled answer, but the run is marked correct")
	}
}

// TestMislabelledReplyCountsAsFailed checks the daemon workload's reply
// check on a mislabelled pair, on cache flags that contradict the
// request's role, on answers that belong to another pair, and on a fresh
// verdict missing from the ledger.
func TestMislabelledReplyCountsAsFailed(t *testing.T) {
	a, err := parser.Parse("a!")
	if err != nil {
		t.Fatal(err)
	}
	k := termKey(a)
	p := pair{req: service.EquivRequest{P: "a!", Q: "a!", Rel: service.RelStep, Cert: true},
		want: false, key: "k", kp: k, kq: k}
	crt := &cert.Certificate{Relation: service.RelStep, Related: true, P: "a!", Q: "a!"}
	ok := reply{status: 200, resp: service.EquivResponse{Related: true, LedgerKey: ledger.KeyHash("k"), Certificate: crt}}
	if checkReply(p, ok, true) == "" {
		t.Error("a mislabelled pair passed the reply check")
	}
	p.want = true
	if f := checkReply(p, ok, true); f != "" {
		t.Errorf("a correct fresh reply failed: %s", f)
	}
	if checkReply(p, ok, false) == "" {
		t.Error("a repeat answered without the cache passed the reply check")
	}
	cached := ok
	cached.resp.Cached = true
	if checkReply(p, cached, true) == "" {
		t.Error("a fresh pair answered from the cache passed the reply check")
	}
	other := ok
	other.resp.LedgerKey = ledger.KeyHash("other")
	if checkReply(p, other, true) == "" {
		t.Error("a reply with another pair's ledger key passed the reply check")
	}
	for _, c := range []cert.Certificate{
		{Relation: service.RelStep, Related: true, P: "b!", Q: "a!"},
		{Relation: service.RelBarbed, Related: true, P: "a!", Q: "a!"},
		{Relation: service.RelStep, Weak: true, Related: true, P: "a!", Q: "a!"},
		{Relation: service.RelStep, Related: false, P: "a!", Q: "a!"},
	} {
		wrong := ok
		wrong.resp.Certificate = &c
		if checkReply(p, wrong, true) == "" {
			t.Errorf("a certificate answering another question (%+v) passed the reply check", c)
		}
	}

	p.req.Cert = false
	bare := ok
	bare.resp.Certificate = nil
	if f := checkReply(p, bare, true); f != "" {
		t.Fatalf("a correct reply without certificate failed: %s", f)
	}
	rd := &daemonRound{pairs: []pair{p}, fresh: []bool{true}, replies: []reply{bare}, persisted: []bool{false}}
	rep := newReport()
	rd.settle(rep)
	if rep.attempted != 1 || rep.failed != 1 {
		t.Errorf("a fresh verdict missing from the ledger: attempted=%d failed=%d, want 1 and 1", rep.attempted, rep.failed)
	}
}
