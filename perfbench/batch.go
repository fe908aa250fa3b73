package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/bsor"
	"repro/internal/experiments"
)

// op is one closed-loop operation of a batch workload: one pipeline
// RunAll over a single spec, or one RunChurn call.
type op struct {
	Spec  *bsor.Spec
	Churn *bsor.ChurnSpec
	// Class groups ops for the traffic properties: the selector of an
	// explore cell, the mesh of a sim spec, "churn".
	Class string
}

// demands are the per-flow bandwidth overrides a seed chooses among for
// the synthetic workloads; the reference covers each.
var demands = []float64{20, 25, 30}

// simSeeds are the sim seeds a run draws from; the reference covers
// each.
var simSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// synthInstance is one Explore instance of synth-sweep; demandSet marks
// the synthetic workloads whose demand a seed varies.
type synthInstance struct {
	topo      bsor.Topology
	workload  string
	alg       string
	demandSet bool
}

// synthInstances is the Table 6.1/6.2 shape: BSOR-MILP explores of mid-size
// instances (most of the time), BSOR-Dijkstra explores of the seven 8x8
// thesis workloads, one 16x16 BSOR-Heuristic explore. The 8x8 transpose
// Dijkstra instance keeps the published demand, so it carries the paper
// anchor. The faulted mesh keeps one fixed fault seed: its MILP cost
// varies tenfold across fault seeds, which would swamp the timing.
var synthInstances = []synthInstance{
	{bsor.Mesh(6, 6), "rand-perm", "BSOR-MILP", true},
	{bsor.Mesh(4, 8), "rand-perm", "BSOR-MILP", true},
	{bsor.FaultedMesh(6, 6, 2, 8), "rand-perm", "BSOR-MILP", true},
	{bsor.Mesh(8, 8), "h264", "BSOR-MILP", false},
	{bsor.Mesh(8, 8), "perf-modeling", "BSOR-MILP", false},
	{bsor.Mesh(8, 8), "transmitter", "BSOR-MILP", false},
	{bsor.Mesh(8, 8), "transpose", "BSOR-Dijkstra", false},
	{bsor.Mesh(8, 8), "bit-complement", "BSOR-Dijkstra", true},
	{bsor.Mesh(8, 8), "shuffle", "BSOR-Dijkstra", true},
	{bsor.Mesh(8, 8), "rand-perm", "BSOR-Dijkstra", true},
	{bsor.Mesh(8, 8), "h264", "BSOR-Dijkstra", false},
	{bsor.Mesh(8, 8), "perf-modeling", "BSOR-Dijkstra", false},
	{bsor.Mesh(8, 8), "transmitter", "BSOR-Dijkstra", false},
	{bsor.Mesh(16, 16), "transpose", "BSOR-Heuristic", true},
}

// cells expands an instance at one demand into single-breaker Explore
// specs: one op per explored CDG, so each cell is timed on its own.
func (in synthInstance) cells(demand float64) []op {
	var ops []op
	for _, b := range bsor.DefaultBreakers(in.topo) {
		s := bsor.Spec{Topo: in.topo, Workload: in.workload, Algorithm: in.alg,
			Breakers: []string{b}, Explore: true, Demand: demand}
		ops = append(ops, op{Spec: &s, Class: in.alg})
	}
	return ops
}

// passRand seeds pass p of a run. Passes keep a fixed op order, so the
// same ops overlap on the clients in every run; the seed varies the
// inputs, not the schedule.
func passRand(seed int64, p int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(p)))
}

// synthPass is pass p of synth-sweep under seed: every instance, each
// synthetic one at a seeded demand.
func synthPass(seed int64, p int) []op {
	rng := passRand(seed, p)
	var ops []op
	for _, in := range synthInstances {
		d := 0.0
		if in.demandSet {
			d = demands[rng.Intn(len(demands))]
		}
		ops = append(ops, in.cells(d)...)
	}
	return ops
}

// synthAll lists every op any seed can produce (the reference domain).
func synthAll() []op {
	var ops []op
	for _, in := range synthInstances {
		if !in.demandSet {
			ops = append(ops, in.cells(0)...)
			continue
		}
		for _, d := range demands {
			ops = append(ops, in.cells(d)...)
		}
	}
	return ops
}

// simShape is one sim-sweep spec without its seed.
type simShape struct {
	topo     bsor.Topology
	workload string
	alg      string
	rates    []float64
	warmup   int64
	measure  int64
	class    string
}

// simShapes: BENCH_sim's 16x16 XY curve, one op per rate (XY synthesis
// is trivial, so nothing is lost by not sharing it); two 8x8
// BSOR-Dijkstra sweeps whose rates share one synthesis through the
// engine cache; a 64x64 pair of points, which weights sim.New set-up
// (short runs keep it from dominating the time).
var simShapes = []simShape{
	{bsor.Mesh(16, 16), "transpose", "XY", []float64{2}, 2000, 10000, "16x16"},
	{bsor.Mesh(16, 16), "transpose", "XY", []float64{10}, 2000, 10000, "16x16"},
	{bsor.Mesh(16, 16), "transpose", "XY", []float64{20}, 2000, 10000, "16x16"},
	{bsor.Mesh(16, 16), "transpose", "XY", []float64{40}, 2000, 10000, "16x16"},
	{bsor.Mesh(16, 16), "transpose", "XY", []float64{60}, 2000, 10000, "16x16"},
	{bsor.Mesh(8, 8), "transpose", "BSOR-Dijkstra", []float64{10, 20, 30}, 2000, 10000, "8x8"},
	{bsor.Mesh(8, 8), "h264", "BSOR-Dijkstra", []float64{10, 20, 30}, 2000, 10000, "8x8"},
	{bsor.Mesh(64, 64), "transpose", "XY", []float64{100, 400}, 100, 400, "64x64"},
}

func (sh simShape) op(seed int64) op {
	s := bsor.Spec{Topo: sh.topo, Workload: sh.workload, Algorithm: sh.alg,
		Sim: &bsor.SimSpec{Rates: sh.rates, Warmup: sh.warmup, Measure: sh.measure, Seed: seed}}
	return op{Spec: &s, Class: sh.class}
}

// churnOp is the churn-16 shape of cmd/experiments at one sim seed. The
// fault schedule stays fixed: re-synthesis cost depends on which links
// fail.
func churnOp(seed int64) op {
	return op{Churn: &bsor.ChurnSpec{Name: "churn-16", Topo: bsor.Mesh(16, 16), Workload: "transpose",
		Rate: 0.4, Seed: seed, Warmup: 4000, Measure: 40000,
		Faults: 4, FaultSeed: 7, FaultSpacing: 8192}, Class: "churn"}
}

// simPass is pass p of sim-sweep under seed: every shape and the churn
// run, each at a seeded sim seed.
func simPass(seed int64, p int) []op {
	rng := passRand(seed, p)
	var ops []op
	for _, sh := range simShapes {
		ops = append(ops, sh.op(simSeeds[rng.Intn(len(simSeeds))]))
	}
	return append(ops, churnOp(simSeeds[rng.Intn(len(simSeeds))]))
}

func simAll() []op {
	var ops []op
	for _, s := range simSeeds {
		for _, sh := range simShapes {
			ops = append(ops, sh.op(s))
		}
		ops = append(ops, churnOp(s))
	}
	return ops
}

// passFn generates pass p of a batch workload under a seed.
func passFn(workload string) func(seed int64, p int) []op {
	if workload == "synth-sweep" {
		return synthPass
	}
	return simPass
}

// key is the op's reference key: the spec's canonical JSON.
func (o op) key() string {
	if o.Churn != nil {
		b, _ := json.Marshal(o.Churn)
		return "churn " + string(b)
	}
	k, err := o.Spec.CanonicalKey()
	if err != nil {
		return "invalid " + err.Error()
	}
	return k
}

// units is the op's work: explore cells for synthesis, simulated cycles
// for simulation.
func (o op) units() float64 {
	switch {
	case o.Churn != nil:
		return float64(o.Churn.Warmup + o.Churn.Measure)
	case o.Spec.Sim != nil:
		return float64(len(o.Spec.Sim.Rates)) * float64(o.Spec.Sim.Warmup+o.Spec.Sim.Measure)
	}
	return 1
}

// fmtNum prints a float with every digit, so digests compare exactly.
func fmtNum(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// exploreDigest is the digest of one explore cell.
func exploreDigest(breaker string, mcl, hops float64, err error) string {
	if err != nil {
		return breaker + " infeasible"
	}
	return fmt.Sprintf("%s mcl=%s hops=%s", breaker, fmtNum(mcl), fmtNum(hops))
}

// pointsDigest is the digest of a sim op: its points as JSON.
func pointsDigest(points []*bsor.Point) string {
	b, _ := json.Marshal(points)
	return string(b)
}

// churnDigest is the digest of a churn op (wall clocks are not marshaled).
func churnDigest(r bsor.ChurnResult) string {
	if r.Err != nil {
		return "error " + r.Err.Error()
	}
	b, _ := json.Marshal(struct {
		MCL    float64           `json:"mcl"`
		Point  *bsor.Point       `json:"point"`
		Events []bsor.ChurnEvent `json:"events"`
	}{r.MCL, r.Point, r.Events})
	return string(b)
}

// facadeOpts are the options every batch op runs with: the smoke MILP
// budget (the Table 6.x shape at seconds per instance), nothing that
// sets a speed knob.
func facadeOpts(m *bsor.Metrics) []bsor.Option {
	opts := []bsor.Option{bsor.WithMILPBudget(bsor.FastMILPBudget())}
	if m != nil {
		opts = append(opts, bsor.WithMetrics(m))
	}
	return opts
}

// runFacade executes one op through the public facade and returns its
// digest.
func runFacade(ctx context.Context, o op, m *bsor.Metrics) (string, error) {
	if o.Churn != nil {
		res, err := bsor.RunChurn(ctx, []bsor.ChurnSpec{*o.Churn}, facadeOpts(m)...)
		if err != nil {
			return "", err
		}
		return churnDigest(res[0]), nil
	}
	p, err := bsor.NewPipeline([]bsor.Spec{*o.Spec}, facadeOpts(m)...)
	if err != nil {
		return "", err
	}
	results, err := p.RunAll(ctx)
	if err != nil {
		return "", err
	}
	if o.Spec.Sim == nil {
		r := results[0]
		return exploreDigest(r.Breaker, r.MCL, r.AvgHops, r.Err), nil
	}
	points := make([]*bsor.Point, len(results))
	for i, r := range results {
		if r.Err != nil {
			return "", fmt.Errorf("sim point %d: %w", i, r.Err)
		}
		points[i] = r.Point
	}
	return pointsDigest(points), nil
}

// opResult is what a batch child reports per op.
type opResult struct {
	Key    string  `json:"key"`
	Class  string  `json:"class"`
	Units  float64 `json:"units"`
	LatNs  int64   `json:"lat_ns"`
	Digest string  `json:"digest"`
	Err    string  `json:"err,omitempty"`
	// Trace is the digest the traced composition produced (trace runs).
	Trace string `json:"trace,omitempty"`

	op op // the op itself, for the traced replay
}

// closedLoop runs passes of ops from NumCPU client goroutines, each
// issuing its next op when the previous completes, until a pass ends
// after seconds have elapsed. fn executes one op.
func closedLoop(seed int64, seconds float64, gen func(seed int64, p int) []op,
	fn func(o op) opResult) (results []opResult, wall time.Duration) {
	clients := runtime.NumCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var queue []op
	pass := 0
	next := func() (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			if pass > 0 && time.Now().After(deadline) {
				return op{}, false
			}
			queue = gen(seed, pass)
			pass++
		}
		o := queue[0]
		queue = queue[1:]
		return o, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, ok := next()
				if !ok {
					return
				}
				r := fn(o)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// facadeOp times one op through the facade.
func facadeOp(ctx context.Context, m *bsor.Metrics) func(o op) opResult {
	return func(o op) opResult {
		t := time.Now()
		digest, err := runFacade(ctx, o, m)
		r := opResult{Key: o.key(), Class: o.Class, Units: o.units(), LatNs: int64(time.Since(t)),
			Digest: digest, op: o}
		if err != nil {
			r.Err = err.Error()
		}
		return r
	}
}

// replay runs fn(0..n-1) on NumCPU closed-loop clients and returns the
// results in index order.
func replay(n int, fn func(i int) opResult) ([]opResult, time.Duration) {
	results := make([]opResult, n)
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, time.Since(start)
}

// anchors maps the reference keys of the paper's published cells to
// their MCL: 8x8 transpose under negative-first(WN) is 75, and h264 and
// transmitter read 120.4 and 7.34 in every Table 6.2 column.
var anchors = func() map[string]string {
	cell := func(workload, breaker string) string {
		return op{Spec: &bsor.Spec{Topo: bsor.Mesh(8, 8), Workload: workload, Algorithm: "BSOR-Dijkstra",
			Breakers: []string{breaker}, Explore: true}}.key()
	}
	m := map[string]string{cell("transpose", "negative-first(WN)"): "75"}
	for _, b := range experiments.TableBreakerNames() {
		m[cell("h264", b)] = "120.4"
		m[cell("transmitter", b)] = "7.34"
	}
	return m
}()

// checkAnchors fails when a reference disagrees with the paper anchors.
func checkAnchors(ref map[string]string) error {
	for k, want := range anchors {
		if got, ok := ref[k]; ok && !strings.Contains(got, " mcl="+want+" ") {
			return fmt.Errorf("paper anchor %s: want MCL %s, got %s", k, want, got)
		}
	}
	return nil
}
