package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/lts"
	"bpi/internal/obs"
	"bpi/internal/parser"
	brand "bpi/internal/rand"
	"bpi/internal/semantics"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

// daemonSizes fixes the make-up of the daemon-mixed workload.
type daemonSizes struct {
	ballast  int // pairs decided in the seeding phase and never asked again
	ledgered int // pairs decided last in the seeding phase, later repeated
	fresh    int // fresh pairs per round
}

// seeded is the number of records in the seeded ledger.
func (sz daemonSizes) seeded() int { return sz.ballast + sz.ledgered }

// sizesFor gives the seeded ledger 20000 records: about the size a daemon
// kept for a whole 30 s phase reached (22k appends over 23 rounds), where
// the ledger's replay and its per-seal index rewrite cost what they cost a
// long-lived daemon.
func sizesFor(tiny bool) daemonSizes {
	if tiny {
		return daemonSizes{ballast: 60, ledgered: 40, fresh: 20}
	}
	return daemonSizes{ballast: 19600, ledgered: 400, fresh: 1000}
}

const (
	// seedChunk is the number of requests the seeding phase sends before it
	// waits for the write-behind appends to catch up: fewer than the
	// service's append queue holds (1024), so seeding never drops a record.
	seedChunk = 1000
	// seedBatch is the seeding daemon's ledger batch size, so that the
	// seeding phase rewrites the ledger's key index only once per batch.
	seedBatch = 1024
	// repeats is the number of ledgered repeats sent per fresh pair, so
	// the request median lands on the cache-hit read path.
	repeats = 3
	// certNth makes every certNth request inline its certificate.
	certNth = 8
)

// layerRounds is the number of rounds whose fresh pairs the traced run
// decides again in-process for the engine-layer figures.
const layerRounds = 4

// clients is the number of closed-loop clients: one per CPU of the
// reference host.
const clients = 2

// pair is one equivalence request with its answer known by construction.
type pair struct {
	req  service.EquivRequest
	want bool
	// key is the canonical pair key, for distinctness; kp and kq are the
	// keys of p and q, for checking that a certificate answers this pair.
	key, kp, kq string
}

// pairGen draws canonically distinct pairs: q is rand.MutateEquiv(p)
// (related under every relation, strong or weak) or rand.MutateBreak(p)
// (unrelated under the strong relations, so asked strongly).
type pairGen struct {
	g    *brand.Gen
	rng  *rand.Rand
	seen map[string]bool
}

func newPairGen(seed int64) *pairGen {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	return &pairGen{g: brand.New(seed, cfg), rng: seededRand(seed ^ 0x5eed), seen: map[string]bool{}}
}

var daemonRels = []string{service.RelLabelled, service.RelBarbed, service.RelStep}

func (pg *pairGen) next() pair {
	for {
		p := pg.g.Term()
		rel := daemonRels[pg.rng.Intn(len(daemonRels))]
		related := pg.rng.Intn(2) == 0
		weak := related && pg.rng.Intn(2) == 0
		var q syntax.Proc
		if related {
			q = pg.g.MutateEquiv(p)
		} else {
			q = pg.g.MutateBreak(p)
		}
		kp, kq := termKey(p), termKey(q)
		key := ledger.PairKey(rel, weak, kp, kq)
		if pg.seen[key] {
			continue
		}
		pg.seen[key] = true
		return pair{
			req:  service.EquivRequest{P: syntax.String(p), Q: syntax.String(q), Rel: rel, Weak: weak},
			want: related, key: key, kp: kp, kq: kq,
		}
	}
}

// daemon is one running bpid core: ledger, service and loopback listener.
type daemon struct {
	led  *ledger.Ledger
	svc  *service.Server
	http *http.Server
	url  string
	done chan error
}

// startDaemon opens the ledger (replaying and re-verifying every record),
// builds the service over it and serves it on a loopback port until it
// answers /healthz. It returns the time ledger.Open took.
func startDaemon(dir string, cfg ledger.Config, cl *http.Client) (*daemon, time.Duration, error) {
	t0 := time.Now()
	led, err := ledger.Open(dir, cfg)
	if err != nil {
		return nil, 0, err
	}
	openT := time.Since(t0)
	svc := service.New(service.Config{Ledger: led})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		_ = led.Close()
		return nil, 0, err
	}
	d := &daemon{led: led, svc: svc, http: &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.http.Serve(ln) }()
	for {
		resp, err := cl.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, openT, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			_ = d.stop()
			return nil, 0, fmt.Errorf("daemon did not answer /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// drain stops the listener and the service, flushing the write-behind
// ledger appends; the ledger stays open.
func (d *daemon) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// stop drains the daemon, then closes the ledger.
func (d *daemon) stop() error {
	err := d.drain()
	if cerr := d.led.Close(); err == nil {
		err = cerr
	}
	return err
}

// awaitAppends waits until the daemon's ledger has appended want records
// in this process, and fails if the service dropped any append.
func (d *daemon) awaitAppends(cl *http.Client, want uint64) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		var ls service.LedgerStatsResponse
		if err := getJSON(cl, d.url+"/v1/ledger/stats", &ls); err != nil {
			return err
		}
		switch {
		case ls.DroppedAppends != 0:
			return fmt.Errorf("seeding: the service dropped %d ledger appends", ls.DroppedAppends)
		case ls.Stats.Appended >= want:
			return nil
		case time.Now().After(deadline):
			return fmt.Errorf("seeding: %d of %d records appended", ls.Stats.Appended, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reply is one answered request as the client saw it.
type reply struct {
	latMs  float64
	bytes  int
	status int
	resp   service.EquivResponse
	err    error
}

// post sends one equivalence request and decodes the answer.
func post(cl *http.Client, url string, req service.EquivRequest) reply {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{err: err}
	}
	t := time.Now()
	resp, err := cl.Post(url+"/v1/equiv", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{latMs: millis(time.Since(t)), bytes: len(data), status: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		r.err = json.Unmarshal(data, &r.resp)
	}
	return r
}

// closedLoop sends reqs through `clients` closed-loop clients, each
// sending its next request only after the previous answer arrived.
func closedLoop(cl *http.Client, url string, reqs []service.EquivRequest) []reply {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = post(cl, url, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// checkReply compares one answer with its known answer, and checks that it
// answers the pair asked: its ledger key, and the question its certificate
// answers. It returns "" when all agree.
func checkReply(p pair, r reply, fresh bool) string {
	switch {
	case r.err != nil:
		return fmt.Sprintf("%s: %v", p.key, r.err)
	case r.status != http.StatusOK:
		return fmt.Sprintf("%s: HTTP %d", p.key, r.status)
	case r.resp.Related != p.want:
		return fmt.Sprintf("%s: related=%t, known answer %t", p.key, r.resp.Related, p.want)
	case fresh && r.resp.Cached:
		return fmt.Sprintf("%s: fresh pair answered from the cache", p.key)
	case !fresh && !r.resp.Cached:
		return fmt.Sprintf("%s: ledgered pair recomputed", p.key)
	case r.resp.LedgerKey != ledger.KeyHash(p.key):
		return fmt.Sprintf("%s: answered with the ledger key of another pair", p.key)
	case p.req.Cert && r.resp.Certificate == nil:
		return fmt.Sprintf("%s: certificate requested but missing", p.key)
	}
	if c := r.resp.Certificate; c != nil {
		if f := certAnswers(c, p.req.Rel, p.req.Weak, p.want, p.kp, p.kq); f != "" {
			return p.key + ": " + f
		}
	}
	return ""
}

// daemonRound is one round of the measured phase.
type daemonRound struct {
	pairs   []pair
	fresh   []bool
	replies []reply
	// persisted marks the fresh pairs found in the ledger after the round.
	persisted         []bool
	wall, cpu, verify time.Duration
	// samples keeps what the metrics need of each reply once the round is
	// settled and its replies dropped.
	samples []sample
	// opened is the ledger as the restart found it; before and after are
	// /metrics around the round; appended counts the round's ledger appends.
	opened        ledger.Stats
	before, after map[string]float64
	appended      float64
}

// latencies returns the client latencies of the round's requests that
// keep selects.
func (rd *daemonRound) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, sm := range rd.samples {
		if keep(sm) {
			out = append(out, sm.latMs)
		}
	}
	return out
}

// sample is one settled request.
type sample struct {
	fresh                 bool
	latMs, serverMs, size float64
}

// settle verifies the round's inlined certificates (timed), records each
// request as an operation checked against its known answer, and drops the
// replies so the client's heap does not grow from round to round.
func (rd *daemonRound) settle(rep *report) {
	verifyErrs := make([]error, len(rd.replies))
	t0 := time.Now()
	for i, r := range rd.replies {
		if r.resp.Certificate != nil {
			verifyErrs[i] = cert.Verify(r.resp.Certificate)
		}
	}
	rd.verify = time.Since(t0)
	rd.samples = make([]sample, len(rd.replies))
	for i, r := range rd.replies {
		fault := checkReply(rd.pairs[i], r, rd.fresh[i])
		switch {
		case fault != "":
		case verifyErrs[i] != nil:
			fault = fmt.Sprintf("%s: certificate rejected: %v", rd.pairs[i].key, verifyErrs[i])
		case rd.fresh[i] && !rd.persisted[i]:
			fault = fmt.Sprintf("%s: verdict answered but not in the ledger", rd.pairs[i].key)
		}
		rep.op(fault)
		rd.samples[i] = sample{fresh: rd.fresh[i], latMs: r.latMs, serverMs: r.resp.ElapsedMs, size: float64(r.bytes)}
	}
	rd.replies = nil
}

// makeRound lays out one round: blocks of one fresh pair and `repeats`
// ledgered ones in seeded order; every certNth request inlines its
// certificate.
func makeRound(sz daemonSizes, pg *pairGen, ledgered []pair) ([]pair, []bool) {
	var ps []pair
	var fresh []bool
	for b := 0; b < sz.fresh; b++ {
		slot := pg.rng.Intn(repeats + 1)
		for j := 0; j <= repeats; j++ {
			if j == slot {
				ps = append(ps, pg.next())
				fresh = append(fresh, true)
			} else {
				ps = append(ps, ledgered[pg.rng.Intn(len(ledgered))])
				fresh = append(fresh, false)
			}
		}
	}
	for i := range ps {
		ps[i].req.Cert = i%certNth == 0
	}
	return ps, fresh
}

// runDaemonMixed runs bpid's core with a persistent ledger behind a
// loopback HTTP listener. An untimed seeding phase decides the ballast and
// then the ledgered pairs, so that their certified verdicts persist and the
// ledgered ones are the last records. Each round of the measured phase then
// restarts the daemon on a copy of that seeded ledger (timed as set-up:
// ledger.Open with full replay, service.New, first answer) and two
// closed-loop clients send one fresh pair per three repeats of ledgered
// pairs. Restarting every round from the same ledger keeps the rounds
// alike: the daemon's store, verdict cache and ledger would otherwise grow
// from round to round, and with them the cost of a request.
func runDaemonMixed(opt options, rep *report) error {
	sz := sizesFor(opt.tiny)
	seeded := filepath.Join(opt.workdir, "seeded")
	live := filepath.Join(opt.workdir, "live")
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	pg := newPairGen(opt.seed)

	t0 := time.Now()
	ledgered, err := seedLedger(seeded, cl, pg, sz, rep)
	if err != nil {
		return err
	}
	tr.CloseIdleConnections()
	fmt.Fprintf(os.Stderr, "perfbench: seeded a ledger of %d records in %.1fs\n", sz.seeded(), time.Since(t0).Seconds())

	var rounds []*daemonRound
	var setupS, replayS []float64
	var seededStats ledger.Stats
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < opt.seconds {
		if err := copyDir(seeded, live); err != nil {
			return err
		}
		t0 := time.Now()
		d, openT, err := startDaemon(live, ledger.Config{}, cl)
		if err != nil {
			return err
		}
		setupS = append(setupS, seconds(time.Since(t0)))
		replayS = append(replayS, seconds(openT))
		rd, err := measureRound(d, cl, sz, pg, ledgered, rep)
		if derr := d.drain(); err == nil {
			err = derr
		}
		if err == nil {
			rd.checkPersisted(d.led, sz.seeded(), len(rounds)+1, rep)
		}
		if cerr := d.led.Close(); err == nil {
			err = cerr
		}
		tr.CloseIdleConnections()
		if err != nil {
			return err
		}
		seededStats = rd.opened
		rd.settle(rep)
		if len(rounds) >= layerRounds {
			rd.pairs = nil
		}
		rounds = append(rounds, rd)
	}
	peak := peakRSSMiB()
	fmt.Fprintf(os.Stderr, "perfbench: %d requests per round, %d rounds in %.1fs\n",
		len(rounds[0].samples), len(rounds), time.Since(start).Seconds())

	if !opt.trace {
		var wall, cpu, verifyS, rate, p50 []float64
		for _, rd := range rounds {
			wall = append(wall, seconds(rd.wall))
			cpu = append(cpu, seconds(rd.cpu))
			verifyS = append(verifyS, seconds(rd.verify))
			rate = append(rate, float64(len(rd.samples))/seconds(rd.wall))
			p50 = append(p50, median(rd.latencies(func(sample) bool { return true })))
		}
		rep.set("setup_s", "s", median(setupS))
		rep.set("verdict_s", "s", median(wall))
		rep.set("verdict_cpu_s", "s", median(cpu))
		rep.set("verify_s", "s", median(verifyS))
		rep.set("verdicts_per_s", "verdicts/s", median(rate))
		rep.set("latency_p50_ms", "ms", median(p50))
		rep.set("peak_rss_mb", "MiB", peak)
		fmt.Fprintf(os.Stderr, "perfbench: %d latency samples per round\n", len(rounds[0].samples))
		return nil
	}

	// Per-layer figures: the service and ledger layers as the client and
	// /metrics saw them, the engine layers by deciding the first rounds'
	// fresh pairs again in-process.
	perRound := map[string][]float64{}
	add := func(name string, v float64) { perRound[name] = append(perRound[name], v) }
	for _, rd := range rounds {
		var transport, size, serverMiss []float64
		for _, sm := range rd.samples {
			transport = append(transport, sm.latMs-sm.serverMs)
			size = append(size, sm.size)
			if sm.fresh {
				serverMiss = append(serverMiss, sm.serverMs)
			}
		}
		miss := rd.latencies(func(sm sample) bool { return sm.fresh })
		add("service.hit_p50_ms", median(rd.latencies(func(sm sample) bool { return !sm.fresh })))
		add("service.transport_p50_ms", median(transport))
		add("service.response_bytes", median(size))
		add("service.miss_p50_ms", median(miss))
		add("service.miss_p99_ms", tailQuantile(miss, 0.99))
		add("service.server_miss_p50_ms", median(serverMiss))
		for _, m := range []struct{ name, series string }{
			{"service.cache_hits", "bpid_verdict_cache_hits_total"},
			{"service.cache_misses", "bpid_verdict_cache_misses_total"},
			{"service.shed", "bpid_admission_shed_total"},
			{"ledger.dropped_appends", "bpid_ledger_dropped_appends_total"},
			{"store.terms", "bpid_store_terms"},
		} {
			add(m.name, rd.after[m.series]-rd.before[m.series])
		}
		add("store.intern_hit_ratio",
			ratio(rd.after["bpid_store_intern_hits_total"], rd.after["bpid_store_intern_misses_total"]))
		add("store.deriv_hit_ratio",
			ratio(rd.after["bpid_store_derivation_hits_total"], rd.after["bpid_store_derivation_misses_total"]))
		add("ledger.appended", rd.appended)
	}
	add("ledger.replay_s", median(replayS))
	add("ledger.records", float64(seededStats.Records))
	add("ledger.bytes", float64(seededStats.Bytes))
	for _, m := range serviceLayers {
		rep.set(m.name, m.unit, median(perRound[m.name]))
	}
	rep.set("store.terms", "count", median(perRound["store.terms"]))
	rep.set("store.intern_hit_ratio", "ratio", median(perRound["store.intern_hit_ratio"]))
	rep.set("store.deriv_hit_ratio", "ratio", median(perRound["store.deriv_hit_ratio"]))
	return daemonEngineLayers(rounds[:min(len(rounds), layerRounds)], rep)
}

// seedLedger decides the ballast pairs, then the ledgered ones, on a daemon
// over a fresh ledger in dir, checking every answer, and returns the
// ledgered pairs. It sends seedChunk requests at a time and waits after
// each chunk until their verdicts are appended, so no append is dropped
// and the ledgered pairs are the last records: a restarted daemon replays
// them last, into its verdict cache (4096 entries), where the ballast
// replayed before them has been evicted.
func seedLedger(dir string, cl *http.Client, pg *pairGen, sz daemonSizes, rep *report) ([]pair, error) {
	d, _, err := startDaemon(dir, ledger.Config{BatchSize: seedBatch}, cl)
	if err != nil {
		return nil, err
	}
	ledgered := make([]pair, sz.ledgered)
	sent := 0
	for phase, n := range []int{sz.ballast, sz.ledgered} {
		for done := 0; done < n && err == nil; done += seedChunk {
			ps := make([]pair, min(seedChunk, n-done))
			reqs := make([]service.EquivRequest, len(ps))
			for i := range ps {
				ps[i] = pg.next()
				reqs[i] = ps[i].req
			}
			for i, r := range closedLoop(cl, d.url, reqs) {
				rep.op(checkReply(ps[i], r, true))
			}
			if phase == 1 {
				copy(ledgered[done:], ps)
			}
			sent += len(ps)
			err = d.awaitAppends(cl, uint64(sent))
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return ledgered, err
}

// checkPersisted looks up every fresh pair of the round in the drained
// daemon's ledger, so that a verdict answered but never appended fails its
// operation, and checks the ledger's counts: the seeded records plus the
// round's appends, none rejected.
func (rd *daemonRound) checkPersisted(led *ledger.Ledger, seeded, n int, rep *report) {
	rd.persisted = make([]bool, len(rd.pairs))
	for i, p := range rd.pairs {
		if rd.fresh[i] {
			_, err := led.Proof(ledger.KeyHash(p.key))
			rd.persisted[i] = !errors.Is(err, ledger.ErrUnknownKey)
		}
	}
	st := led.Stats()
	rd.appended = float64(st.Appended)
	if st.Rejected != 0 || st.Records != seeded+int(st.Appended) {
		rep.wrong("after round %d: %d records (%d appended), %d rejected", n, st.Records, st.Appended, st.Rejected)
	}
}

// measureRound checks that the restarted daemon replayed every seeded
// record, then sends one round of requests through the closed-loop
// clients, reading /metrics before and after.
func measureRound(d *daemon, cl *http.Client, sz daemonSizes, pg *pairGen, ledgered []pair, rep *report) (*daemonRound, error) {
	rd := &daemonRound{opened: d.led.Stats()}
	var ls service.LedgerStatsResponse
	if err := getJSON(cl, d.url+"/v1/ledger/stats", &ls); err != nil {
		return nil, err
	}
	if rd.opened.Rejected != 0 || rd.opened.Records != sz.seeded() || ls.Replayed != sz.seeded() {
		rep.wrong("restart: %d records, %d rejected, %d replayed; want %d, 0, %d",
			rd.opened.Records, rd.opened.Rejected, ls.Replayed, sz.seeded(), sz.seeded())
	}
	rd.pairs, rd.fresh = makeRound(sz, pg, ledgered)
	reqs := make([]service.EquivRequest, len(rd.pairs))
	for i, p := range rd.pairs {
		reqs[i] = p.req
	}
	var err error
	if rd.before, err = scrapeMetrics(cl, d.url); err != nil {
		return nil, err
	}
	runtime.GC()
	cpu0 := cpuTime()
	t0 := time.Now()
	rd.replies = closedLoop(cl, d.url, reqs)
	rd.wall = time.Since(t0)
	rd.cpu = cpuTime() - cpu0
	if rd.after, err = scrapeMetrics(cl, d.url); err != nil {
		return nil, err
	}
	return rd, nil
}

// copyDir replaces dst with a copy of the flat directory src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copying %s: %s is not a regular file", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func getJSON(cl *http.Client, url string, v any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeMetrics reads /metrics and sums each series over its labels.
func scrapeMetrics(cl *http.Client, url string) (map[string]float64, error) {
	resp, err := cl.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// daemonEngineLayers decides the fresh pairs of rounds again in-process,
// as the daemon does (one checker per query over a shared store), once
// untraced and once traced, and times the syntax and semantics layers over
// the joint LTS of each pair.
func daemonEngineLayers(rounds []*daemonRound, rep *report) error {
	var ps []pair
	for _, rd := range rounds {
		for i, p := range rd.pairs {
			if rd.fresh[i] {
				ps = append(ps, p)
			}
		}
	}
	parsed := make([][2]syntax.Proc, len(ps))
	for i, p := range ps {
		var err error
		if parsed[i][0], err = parser.Parse(p.req.P); err != nil {
			return err
		}
		if parsed[i][1], err = parser.Parse(p.req.Q); err != nil {
			return err
		}
	}
	pass := func(tr *obs.Tracer) (time.Duration, []equiv.Result, float64, float64, error) {
		store := equiv.NewStore(nil)
		results := make([]equiv.Result, len(ps))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i, p := range ps {
			chk := equiv.NewCheckerWithStore(store)
			chk.Certify = true
			chk.Obs = tr
			var err error
			a, b := parsed[i][0], parsed[i][1]
			switch p.req.Rel {
			case service.RelLabelled:
				results[i], err = chk.Labelled(a, b, p.req.Weak)
			case service.RelBarbed:
				results[i], err = chk.Barbed(a, b, p.req.Weak)
			default:
				results[i], err = chk.Step(a, b, p.req.Weak)
			}
			if err != nil {
				return 0, nil, 0, 0, fmt.Errorf("%s: %w", p.key, err)
			}
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		return wall, results, float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20), float64(ms1.NumGC - ms0.NumGC), nil
	}
	plainWall, results, allocMB, gcs, err := pass(nil)
	if err != nil {
		return err
	}
	tr := obs.NewWithLimit(0)
	tracedWall, _, _, _, err := pass(tr)
	if err != nil {
		return err
	}
	for i, res := range results {
		if res.Related != ps[i].want {
			rep.wrong("%s: in-process verdict %t, known answer %t", ps[i].key, res.Related, ps[i].want)
		}
	}
	expand, fixpoint, emit := engineSpans(tr)
	var pairs, certBytes float64
	for _, res := range results {
		pairs += float64(res.Pairs)
		if b, err := json.Marshal(res.Cert); err == nil && res.Cert != nil {
			certBytes += float64(len(b))
		}
	}
	rep.set("equiv.expand_s", "s", seconds(expand))
	rep.set("equiv.fixpoint_s", "s", seconds(fixpoint))
	rep.set("equiv.cert_emit_s", "s", seconds(emit))
	rep.set("equiv.pairs", "count", pairs)
	rep.set("equiv.alloc_mb", "MiB", allocMB)
	rep.set("equiv.gc_cycles", "count", gcs)
	rep.set("cert.bytes", "bytes", certBytes)
	rep.set("trace.overhead_s", "s", seconds(tracedWall-plainWall))

	sys := semantics.NewSystem(nil)
	lay := &layerTimes{}
	var states []syntax.Proc
	for i := range ps {
		g, err := lts.Explore(sys, parsed[i][:], lts.Options{MaxStates: maxStates})
		if err != nil {
			return err
		}
		lay.states += float64(g.NumStates())
		for _, st := range g.States {
			states = append(states, st.Proc)
		}
	}
	lay.measure(sys, states)
	lay.report(rep)
	return nil
}

// serviceLayers are the service and ledger per-layer metrics, which only
// daemon-mixed exercises.
var serviceLayers = []struct{ name, unit string }{
	{"service.hit_p50_ms", "ms"}, {"service.transport_p50_ms", "ms"},
	{"service.response_bytes", "bytes"}, {"service.miss_p50_ms", "ms"},
	{"service.miss_p99_ms", "ms"}, {"service.server_miss_p50_ms", "ms"},
	{"service.cache_hits", "count"}, {"service.cache_misses", "count"},
	{"service.shed", "count"}, {"ledger.replay_s", "s"},
	{"ledger.records", "count"}, {"ledger.bytes", "bytes"},
	{"ledger.appended", "count"}, {"ledger.dropped_appends", "count"},
}

// setServiceZero reports the service and ledger layers as unexercised on
// the engine workloads, which never start the daemon.
func setServiceZero(rep *report) {
	for _, m := range serviceLayers {
		rep.set(m.name, m.unit, 0)
	}
}
