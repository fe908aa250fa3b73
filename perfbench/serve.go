package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/bsor"
)

// serveRate is the open-loop arrival rate (requests/s). At this rate the
// daemon's compute takes about 0.85 of its two cores and the backlog does
// not grow; a 30 s run yields over 1000 /v1/synthesize samples (for p99)
// and over 100 /v1/sim samples (for p90).
const serveRate = 100

// endpointMix is serve-mix's endpoint mix per block of 50 requests:
// mostly synthesize, then sim, verify, explore.
var endpointMix = []struct {
	name  string
	count int
}{{"synthesize", 36}, {"sim", 6}, {"verify", 5}, {"explore", 3}}

// combo is a (topology, workloads, algorithms) block of specs the daemon
// serves without error; demands multiply it into distinct keys.
type combo struct {
	topo      bsor.Topology
	workloads []string
	algs      []string
}

var (
	allAlgs   = []string{"BSOR-Dijkstra", "BSOR-Heuristic", "XY", "YX", "ROMM", "Valiant", "O1TURN", "SP"}
	graphAlgs = []string{"BSOR-Dijkstra", "BSOR-Heuristic", "SP"}
	synthetic = []string{"transpose", "bit-complement", "shuffle", "rand-perm"}
)

// serveCombos: Dijkstra, Heuristic and baseline specs, no MILP (the lp
// layer is synth-sweep's). Every listed combination routes every flow.
var serveCombos = []combo{
	{bsor.Mesh(4, 4), synthetic, allAlgs},
	{bsor.Mesh(4, 8), []string{"bit-complement", "shuffle", "rand-perm"}, allAlgs},
	{bsor.Mesh(6, 6), []string{"h264", "perf-modeling", "rand-perm"}, allAlgs},
	{bsor.Mesh(8, 8), append(append([]string{}, synthetic...), "h264", "perf-modeling", "transmitter"), allAlgs},
	{bsor.Torus(4, 4), synthetic, allAlgs},
	{bsor.Ring(8), []string{"bit-complement", "shuffle", "rand-perm"}, graphAlgs},
	{bsor.FullMesh(6), []string{"rand-perm"}, graphAlgs},
	{bsor.FoldedClos(2, 4), []string{"rand-perm"}, graphAlgs},
}

// serveDemands multiply the combos into a catalog (about 2200 keys)
// larger than the daemon's 1024-entry response cache.
var serveDemands = []float64{0, 10, 12.5, 15, 17.5, 20, 22.5, 27.5, 30, 32.5, 35, 40}

// request is one scheduled request.
type request struct {
	at       time.Duration // due, from the start of the schedule
	endpoint string
	body     []byte
	key      string // endpoint + canonical key
	synthKey string // canonical key of the spec without its sim block
	spec     bsor.Spec
}

// schedule builds the seeded open-loop schedule: rate*seconds Poisson
// arrivals, endpoints by endpointMix, keys Zipf-skewed over a seeded
// catalog, each document in a seeded JSON spelling. The first request is
// the committed smoke spec, whose body has a golden.
//
// The seed picks which specs are popular, not how costly the popular
// ones are: Zipf ranks go round-robin over cost groups (topology and
// algorithm family), each group in seeded order; sim ranks follow a
// fixed mesh and rate-count pattern; each block of endpointBlock
// requests holds the exact endpoint mix; the arrival gaps are scaled to
// fill the run exactly.
func schedule(seed int64, seconds float64, smoke []byte) ([]request, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	catalog := rankedCatalog(rng)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(catalog)-1))

	// Sim specs reuse popular synthesis specs on the small meshes, so
	// many match an earlier /v1/synthesize spec except for the sim block.
	simRates := map[bsor.Topology][]float64{bsor.Mesh(4, 4): {1, 2, 3}, bsor.Mesh(8, 8): {5, 10, 20}}
	var small [2][]bsor.Spec
	for _, s := range catalog {
		switch s.Topo {
		case bsor.Mesh(4, 4):
			small[0] = append(small[0], s)
		case bsor.Mesh(8, 8):
			small[1] = append(small[1], s)
		}
	}
	simCatalog := make([]bsor.Spec, 300)
	for i := range simCatalog {
		s := small[i%2][i/2]
		rates := append([]float64(nil), simRates[s.Topo]...)
		rng.Shuffle(len(rates), func(i, j int) { rates[i], rates[j] = rates[j], rates[i] })
		s.Sim = &bsor.SimSpec{Rates: rates[:1+i%3], Warmup: 1000, Measure: 4000, Seed: int64(1 + rng.Intn(3))}
		simCatalog[i] = s
	}
	simZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(simCatalog)-1))

	n := int(serveRate * seconds)
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	var endpoints []string
	first, err := newRequest(0, "synthesize", smoke)
	if err != nil {
		return nil, 0, fmt.Errorf("smoke spec: %w", err)
	}
	reqs := []request{first}
	var canon time.Duration
	at := 0.0
	for i := 0; i < n; i++ {
		at += gaps[i] / total * seconds
		if len(endpoints) == 0 {
			for _, e := range endpointMix {
				for k := 0; k < e.count; k++ {
					endpoints = append(endpoints, e.name)
				}
			}
			rng.Shuffle(len(endpoints), func(i, j int) { endpoints[i], endpoints[j] = endpoints[j], endpoints[i] })
		}
		endpoint := endpoints[0]
		endpoints = endpoints[1:]
		var s bsor.Spec
		switch endpoint {
		case "sim":
			s = simCatalog[simZipf.Uint64()]
		case "explore":
			for s = catalog[zipf.Uint64()]; !strings.HasPrefix(s.Algorithm, "BSOR-"); s = catalog[zipf.Uint64()] {
			}
		default:
			s = catalog[zipf.Uint64()]
		}
		t := time.Now()
		r, err := newRequest(time.Duration(at*float64(time.Second)), endpoint, spell(rng, s))
		canon += time.Since(t)
		if err != nil {
			return nil, 0, err
		}
		reqs = append(reqs, r)
	}
	return reqs, canon / time.Duration(n), nil
}

// rankedCatalog lists every catalog spec in Zipf rank order: cost groups
// taken round-robin in a fixed order, each group shuffled by the seed.
func rankedCatalog(rng *rand.Rand) []bsor.Spec {
	var order []string
	groups := map[string][]bsor.Spec{}
	for _, c := range serveCombos {
		for _, w := range c.workloads {
			for _, a := range c.algs {
				family := a
				if !strings.HasPrefix(a, "BSOR-") {
					family = "baseline"
				}
				g := c.topo.String() + " " + family
				if _, ok := groups[g]; !ok {
					order = append(order, g)
				}
				for _, d := range serveDemands {
					groups[g] = append(groups[g], bsor.Spec{Topo: c.topo, Workload: w, Algorithm: a, Demand: d})
				}
			}
		}
	}
	for _, g := range order {
		specs := groups[g]
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	}
	var ranked []bsor.Spec
	for left := true; left; {
		left = false
		for _, g := range order {
			if specs := groups[g]; len(specs) > 0 {
				ranked = append(ranked, specs[0])
				groups[g] = specs[1:]
				left = true
			}
		}
	}
	return ranked
}

// newRequest decodes a request document the way the daemon does and
// derives its cache identity.
func newRequest(at time.Duration, endpoint string, body []byte) (request, error) {
	r := request{at: at, endpoint: endpoint, body: body}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r.spec); err != nil {
		return r, err
	}
	if endpoint != "sim" {
		r.spec.Sim = nil
	}
	r.spec.Explore = false
	key, err := r.spec.CanonicalKey()
	if err != nil {
		return r, err
	}
	r.key = endpoint + " " + key
	plain := r.spec
	plain.Sim = nil
	if r.synthKey, err = plain.CanonicalKey(); err != nil {
		return r, err
	}
	return r, nil
}

// spell renders a spec as one of many equivalent JSON documents: field
// order shuffled, algorithm case varied, defaults spelled out or left
// implicit, compact or indented.
func spell(rng *rand.Rand, s bsor.Spec) []byte {
	fields := map[string]any{"topo": s.Topo, "workload": s.Workload}
	switch rng.Intn(3) {
	case 0:
		fields["algorithm"] = s.Algorithm
	case 1:
		fields["algorithm"] = strings.ToLower(s.Algorithm)
	default:
		fields["algorithm"] = strings.ToUpper(s.Algorithm)
	}
	if s.Demand != 0 {
		fields["demand"] = s.Demand
	}
	if rng.Intn(2) == 0 {
		fields["vcs"] = 2
	}
	if rng.Intn(3) == 0 && strings.HasPrefix(s.Algorithm, "BSOR-") {
		fields["breakers"] = bsor.DefaultBreakers(s.Topo)
	}
	if rng.Intn(4) == 0 {
		fields["explore"] = false
	}
	if s.Sim != nil {
		fields["sim"] = s.Sim
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	// Map order is random per process; sort, then shuffle by the seed.
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	indent := rng.Intn(2) == 0
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		if indent {
			b.WriteString("\n  ")
		}
		v, _ := json.Marshal(fields[k])
		fmt.Fprintf(&b, "%q:%s", k, v)
	}
	if indent {
		b.WriteByte('\n')
	}
	b.WriteByte('}')
	return b.Bytes()
}

// response is one completed request.
type response struct {
	due, sent, done time.Time
	status          int
	cache           string
	body            []byte
	err             error
}

// serveMix runs the open-loop workload against a bsord child process.
func serveMix(cfg config) (outcome, error) {
	smoke, err := os.ReadFile(filepath.Join("cmd", "bsord", "testdata", "synthesize-smoke.spec.json"))
	if err != nil {
		return outcome{}, err
	}
	golden, err := os.ReadFile(filepath.Join("cmd", "bsord", "testdata", "synthesize-smoke.golden.json"))
	if err != nil {
		return outcome{}, err
	}
	reqs, canonPer, err := schedule(cfg.seed, cfg.seconds, smoke)
	if err != nil {
		return outcome{}, err
	}
	bin := filepath.Join(".bench_build", "bin", "bsord")
	var setups []float64
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			d, err := startBsord(bin)
			if err != nil {
				return err
			}
			setups = append(setups, d.setup.Seconds())
			if err := d.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setUp(setupRuns / 2); err != nil {
		return outcome{}, err
	}
	d, err := startBsord(bin)
	if err != nil {
		return outcome{}, err
	}
	setups = append(setups, d.setup.Seconds())
	stop := make(chan struct{})
	peak := peakRSS(d.cmd.Process.Pid, stop)
	resps := fire(d.url, reqs)
	close(stop)
	rssWindows := <-peak
	scrape, scrapeErr := d.metrics()
	if err := d.stop(); err != nil {
		return outcome{}, err
	}
	if scrapeErr != nil {
		return outcome{}, scrapeErr
	}
	rss, cpu := rusage(d.cmd)
	if err := setUp(setupRuns / 2); err != nil {
		return outcome{}, err
	}

	out := outcome{attempted: len(reqs), metrics: map[string]float64{}, properties: map[string]float64{}}
	bodies := map[string]string{}
	seen := map[string]bool{}
	synthDone := map[string]bool{}
	var all, synthLat, simLat, hitLat, missLat, lags []float64
	var good, repeats, simComputes, simReused float64
	var last time.Time
	for i, r := range resps {
		q := reqs[i]
		lat, lag := openLoopTiming(r.due, r.sent, r.done)
		ms := float64(lat) / 1e6
		all = append(all, ms)
		lags = append(lags, float64(lag)/1e6)
		switch q.endpoint {
		case "synthesize":
			synthLat = append(synthLat, ms)
		case "sim":
			simLat = append(simLat, ms)
		}
		if seen[q.key] {
			repeats++
		}
		seen[q.key] = true
		if r.done.After(last) {
			last = r.done
		}
		var bad string
		switch {
		case r.err != nil:
			bad = r.err.Error()
		case r.status != http.StatusOK:
			bad = fmt.Sprintf("status %d: %s", r.status, firstLine(r.body))
		case i == 0 && !bytes.Equal(r.body, golden):
			bad = "4x4 transpose body differs from cmd/bsord/testdata/synthesize-smoke.golden.json"
		}
		if bad == "" {
			h := sha256.Sum256(r.body)
			sum := hex.EncodeToString(h[:])
			if prev, ok := bodies[q.key]; ok && prev != sum {
				bad = "two different bodies for one canonical key"
			}
			bodies[q.key] = sum
		}
		if bad != "" {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s %s: %s", q.endpoint, q.body, bad))
			continue
		}
		good++
		switch r.cache {
		case "hit":
			hitLat = append(hitLat, ms)
		case "miss":
			missLat = append(missLat, ms)
		}
	}
	// Which /v1/sim computes found their synthesis already computed for
	// another endpoint or rate set: walk the computes in completion order.
	order := make([]int, 0, len(resps))
	for i, r := range resps {
		if r.cache == "miss" {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return resps[order[a]].done.Before(resps[order[b]].done) })
	for _, i := range order {
		if reqs[i].endpoint == "sim" {
			simComputes++
			if synthDone[reqs[i].synthKey] {
				simReused++
			}
		}
		synthDone[reqs[i].synthKey] = true
	}

	start := resps[0].due
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mb"] = rss
	if rssWindows > 0 {
		out.metrics["peak_rss_mb"] = rssWindows
	}
	out.metrics["work_per_s"] = good / last.Sub(start).Seconds()
	out.metrics["cpu_ms_per_op"] = cpu * 1000 / float64(len(reqs))

	pct := func(name string, s []float64, q float64) {
		v, ok := percentile(s, q)
		if !ok && cfg.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s has fewer than %d samples beyond it (%d samples)\n", name, minBeyond, len(s))
		}
		out.metrics[name] = v
	}
	pct("op_p50_ms", all, 0.5)
	pct("synthesize_p50_ms", synthLat, 0.5)
	pct("synthesize_p99_ms", synthLat, 0.99)
	pct("sim_p50_ms", simLat, 0.5)
	pct("sim_p90_ms", simLat, 0.9)
	pct("loadgen.lag_p99_ms", lags, 0.99)
	pct("server.hit_p50_ms", hitLat, 0.5)
	pct("server.miss_p50_ms", missLat, 0.5)
	out.metrics["loadgen.offered_rps"] = float64(len(reqs)) / reqs[len(reqs)-1].at.Seconds()
	out.metrics["loadgen.requests"] = float64(len(reqs))
	out.metrics["bsor.canonical_us"] = float64(canonPer) / 1e3
	for name, prom := range map[string]string{
		"server.requests": "server_requests_total", "server.cache_hits": "server_cache_hits_total",
		"server.dedup": "server_dedup_total", "server.computes": "server_computes_total",
		"server.shed": "server_shed_total", "server.errors": "server_errors_total",
		"server.compute_busy_s": "server_compute_seconds_seconds_total",
	} {
		out.metrics[name] = scrape[prom]
	}
	if n := scrape["server_requests_total"]; n > 0 {
		out.metrics["server.cache_hit_ratio"] = scrape["server_cache_hits_total"] / n
	}
	out.metrics["server.wait_s"] = scrape["server_request_seconds_seconds_total"] - scrape["server_compute_seconds_seconds_total"]
	out.properties["props.key_repeat_frac"] = repeats / float64(len(reqs))
	out.properties["props.key_repeat_base"] = float64(len(reqs))
	out.properties["props.sim_synth_reuse_frac"] = simReused / max(simComputes, 1)
	out.properties["props.sim_synth_reuse_base"] = simComputes

	if cfg.trace {
		traceServe(reqs, resps, &out)
	}
	return out, nil
}

// fire sends the schedule open-loop: each request leaves when due, on
// its own goroutine, whatever is still in flight.
func fire(url string, reqs []request) []response {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 64, MaxConnsPerHost: 64},
		Timeout:   2 * time.Minute,
	}
	defer client.CloseIdleConnections()
	resps := make([]response, len(reqs))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i, q := range reqs {
		due := start.Add(q.at)
		time.Sleep(time.Until(due))
		resps[i].due = due
		resps[i].sent = time.Now()
		wg.Add(1)
		go func(i int, q request) {
			defer wg.Done()
			r := &resps[i]
			resp, err := client.Post(url+"/v1/"+q.endpoint, "application/json", bytes.NewReader(q.body))
			if err == nil {
				r.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				r.status = resp.StatusCode
				r.cache = resp.Header.Get("X-Cache")
			}
			r.err = err
			r.done = time.Now()
		}(i, q)
	}
	wg.Wait()
	return resps
}

// daemon is a running bsord child.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	setup time.Duration
}

// startBsord launches bsord on a free loopback port with default flags
// and returns once /healthz answers 200; setup runs from exec to then.
func startBsord(bin string) (*daemon, error) {
	start := time.Now()
	var url string
	l, err := launch(bin, []string{"-addr", "127.0.0.1:0"}, func(line string) bool {
		rest, ok := strings.CutPrefix(line, "bsord: listening on ")
		url = rest
		return ok
	})
	if err != nil {
		return nil, err
	}
	go func() {
		for range l.lines {
		}
	}()
	d := &daemon{cmd: l.cmd, url: url}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			_ = d.stop()
			return nil, fmt.Errorf("bsord never became healthy")
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.setup = time.Since(start)
	client.CloseIdleConnections()
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit. bsord
// answers /healthz before it installs its signal handler, so a daemon
// stopped right after set-up may die of the signal itself; that is a
// clean stop too.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	err := d.cmd.Wait()
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	if err != nil {
		return fmt.Errorf("bsord: %w", err)
	}
	return nil
}

// metrics scrapes the daemon's Prometheus text exposition.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// traceServe rebuilds every response the daemon computed from the layer
// functions, checks the composition against the body it served, and
// adds the per-layer metrics.
func traceServe(reqs []request, resps []response, out *outcome) {
	type job struct {
		q    request
		body []byte
	}
	var jobs []job
	done := map[string]bool{}
	for i, r := range resps {
		if r.cache == "miss" && r.status == http.StatusOK && !done[reqs[i].key] {
			done[reqs[i].key] = true
			jobs = append(jobs, job{reqs[i], r.body})
		}
	}
	comp := newComposer()
	ctx := context.Background()
	results, _ := replay(len(jobs), func(i int) opResult {
		j := jobs[i]
		root := comp.rec.begin("op", i, -1)
		defer comp.rec.end(root)
		if err := comp.serveOp(ctx, j.q, j.body, i, root); err != nil {
			return opResult{Err: fmt.Sprintf("%s %s: %v", j.q.endpoint, j.q.body, err)}
		}
		return opResult{}
	})
	for _, r := range results {
		if r.Err != "" {
			out.failed++
			out.problems = append(out.problems, "traced composition: "+r.Err)
		}
	}
	m := out.metrics
	comp.layerMetrics(m)
	if busy := m["server.compute_busy_s"]; busy > 0 {
		// The daemon's compute seconds for the same work, against the
		// composition's span seconds.
		var traced time.Duration
		for _, s := range comp.rec.spans {
			if s.Name == "op" {
				traced += s.End.Sub(s.Start)
			}
		}
		m["trace.overhead_frac"] = traced.Seconds()/busy - 1
	}
}

// serveOp composes one computed response and compares it with the body
// the daemon served.
func (c *composer) serveOp(ctx context.Context, q request, body []byte, trace, root int) error {
	spec := q.spec
	switch q.endpoint {
	case "synthesize":
		var got struct {
			Breaker string  `json:"breaker"`
			MCL     float64 `json:"mcl"`
			AvgHops float64 `json:"avg_hops"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		syn, err := c.synthesize(ctx, spec, trace, root, true)
		if err != nil {
			return err
		}
		mcl, _ := syn.set.MCL()
		if syn.breaker != got.Breaker || mcl != got.MCL || syn.set.AvgHops() != got.AvgHops {
			return fmt.Errorf("composed %s/%v/%v, served %s/%v/%v", syn.breaker, mcl, syn.set.AvgHops(), got.Breaker, got.MCL, got.AvgHops)
		}
	case "verify":
		var got struct {
			Certificate bsor.Certificate `json:"certificate"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		syn, err := c.synthesize(ctx, spec, trace, root, true)
		if err != nil {
			return err
		}
		cert, err := c.certifySet(syn, spec.Capacity, trace, root)
		if err != nil {
			return err
		}
		if cert.MCL != got.Certificate.MCL || cert.Levels != got.Certificate.Levels || len(cert.Rank) != len(got.Certificate.Ranks) {
			return fmt.Errorf("composed certificate %v/%d levels, served %v/%d", cert.MCL, cert.Levels, got.Certificate.MCL, got.Certificate.Levels)
		}
	case "explore":
		var got struct {
			Explorations []struct {
				Breaker string  `json:"breaker"`
				MCL     float64 `json:"mcl"`
				AvgHops float64 `json:"avg_hops"`
			} `json:"explorations"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		syn, err := c.synthesize(ctx, spec, trace, root, false)
		if err != nil {
			return err
		}
		if len(syn.rows) != len(got.Explorations) {
			return fmt.Errorf("composed %d rows, served %d", len(syn.rows), len(got.Explorations))
		}
		for i, row := range syn.rows {
			g := got.Explorations[i]
			if row.Err != nil {
				row.MCL, row.AvgHops = -1, 0
			}
			if row.Breaker != g.Breaker || row.MCL != g.MCL || row.AvgHops != g.AvgHops {
				return fmt.Errorf("row %s: composed %v/%v, served %v/%v", row.Breaker, row.MCL, row.AvgHops, g.MCL, g.AvgHops)
			}
		}
	case "sim":
		var got struct {
			Results []bsor.Result `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		syn, err := c.synthesize(ctx, spec, trace, root, true)
		if err != nil {
			return err
		}
		points, err := c.simulate(ctx, syn, spec.Sim, trace, root)
		if err != nil {
			return err
		}
		served := make([]*bsor.Point, len(got.Results))
		for i, r := range got.Results {
			served[i] = r.Point
		}
		if pointsDigest(points) != pointsDigest(served) {
			return fmt.Errorf("composed points %s, served %s", pointsDigest(points), pointsDigest(served))
		}
	}
	return nil
}
