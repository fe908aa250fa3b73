package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/bsor"
	"repro/internal/cdg"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flowgraph"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topology"
)

// composer rebuilds facade operations from the public functions of each
// layer, timing every call as a span. Counters the layers already export
// (lp, route) go to col through the instrumented selectors.
type composer struct {
	rec *recorder
	col *metrics.Collector

	mu     sync.Mutex
	counts map[string]float64
}

func newComposer() *composer {
	return &composer{rec: &recorder{}, col: metrics.New(), counts: make(map[string]float64)}
}

func (c *composer) add(name string, v float64) {
	c.mu.Lock()
	c.counts[name] += v
	c.mu.Unlock()
}

// job converts a facade spec into the engine's job declaration, the
// input ResolveAlgorithm takes.
func job(s bsor.Spec) experiments.Job {
	vcs := s.VCs
	if vcs == 0 {
		vcs = 2
	}
	alg, _ := bsor.NormalizeAlgorithm(s.Algorithm)
	if alg == "" {
		alg = "BSOR-Dijkstra"
	}
	t := s.Topo
	return experiments.Job{
		Topo: experiments.TopoSpec{Kind: t.Kind, Width: t.Width, Height: t.Height, Nodes: t.Nodes,
			Spines: t.Spines, Leaves: t.Leaves, Faults: t.Faults, FaultSeed: t.FaultSeed},
		Workload: s.Workload, Algorithm: alg, Breakers: s.Breakers, VCs: vcs,
		Demand: s.Demand, Capacity: s.Capacity,
	}
}

// synthesis is a composed route synthesis: the route set and, for BSOR,
// the winning breaker.
type synthesis struct {
	topo    topology.Topology
	set     *route.Set
	breaker string
	vcs     int
	alg     string
	rows    []core.Explored // every explored breaker, in order
}

// selectorSpan names the route layer span of a selector.
func selectorSpan(alg string) string {
	switch alg {
	case "BSOR-MILP":
		return "route.milp"
	case "BSOR-Heuristic":
		return "route.heuristic"
	case "BSOR-Dijkstra":
		return "route.dijkstra"
	}
	return "route.baseline"
}

// synthesize composes topology build, workload flows, and either the
// BSOR chain (full CDG, per breaker: break, flow network, selection,
// conformance; then the best set's validity and deadlock checks) or a
// baseline algorithm. best=false keeps every breaker's row and picks no
// winner (the Explore shape).
func (c *composer) synthesize(ctx context.Context, s bsor.Spec, trace, parent int, best bool) (*synthesis, error) {
	j := job(s)
	out := &synthesis{vcs: j.VCs, alg: j.Algorithm}
	var err error
	c.rec.do("topology.build", trace, parent, func() { out.topo, err = j.Topo.Build() })
	if err != nil {
		return nil, err
	}
	var flows []flowgraph.Flow
	c.rec.do("traffic.flows", trace, parent, func() { flows, err = experiments.WorkloadFlows(out.topo, j.Workload, j.Demand) })
	if err != nil {
		return nil, err
	}
	if len(j.Breakers) == 0 {
		j.Breakers = bsor.DefaultBreakers(s.Topo)
	}
	runner := &experiments.Runner{MILP: experiments.FastMILP(), Metrics: c.col}
	alg, err := runner.ResolveAlgorithm(j)
	if err != nil {
		return nil, err
	}
	b, ok := alg.(core.BSOR)
	if !ok {
		c.rec.do("route.baseline", trace, parent, func() { out.set, err = route.RoutesWithContext(ctx, alg, out.topo, flows) })
		return out, err
	}
	capacity := j.Capacity
	if capacity == 0 {
		max := 0.0
		for _, f := range flows {
			max = math.Max(max, f.Demand)
		}
		if max == 0 {
			max = 1
		}
		capacity = 4 * max
	}
	var full *cdg.Graph
	c.rec.do("cdg.full", trace, parent, func() { full = cdg.NewFull(out.topo, j.VCs) })
	for _, br := range b.Config.Breakers {
		ex := core.Explored{Breaker: br.Name()}
		c.add("core.breakers", 1)
		var dag *cdg.Graph
		acyclic := false
		c.rec.do("cdg.break", trace, parent, func() { dag = br.Break(full); acyclic = dag.IsAcyclic() })
		if !acyclic {
			ex.Err = fmt.Errorf("breaker %s left the CDG cyclic", br.Name())
		} else {
			var g *flowgraph.Graph
			c.rec.do("flowgraph.build", trace, parent, func() { g = flowgraph.New(dag, flows, capacity) })
			var set *route.Set
			c.rec.do(selectorSpan(j.Algorithm), trace, parent, func() { set, ex.Err = route.SelectWithContext(ctx, b.Config.Selector, g) })
			if ex.Err == nil {
				c.rec.do("route.check", trace, parent, func() { ex.Err = set.Conforms(dag) })
			}
			if ex.Err == nil {
				ex.Set = set
				ex.MCL, _ = set.MCL()
				ex.AvgHops = set.AvgHops()
			}
		}
		if ex.Err != nil {
			c.add("core.breaker_failures", 1)
		}
		out.rows = append(out.rows, ex)
	}
	if !best {
		return out, nil
	}
	// core.BestContext's rule: smallest MCL, ties by fewer hops, then
	// breaker order.
	win := -1
	for i, ex := range out.rows {
		if ex.Err != nil {
			continue
		}
		if win < 0 || ex.MCL < out.rows[win].MCL-1e-9 ||
			(math.Abs(ex.MCL-out.rows[win].MCL) <= 1e-9 && ex.AvgHops < out.rows[win].AvgHops) {
			win = i
		}
	}
	if win < 0 {
		return nil, core.ErrInfeasible
	}
	out.set, out.breaker = out.rows[win].Set, out.rows[win].Breaker
	c.rec.do("route.check", trace, parent, func() {
		if err = out.set.Validate(j.VCs); err == nil {
			err = out.set.DeadlockFree(j.VCs)
		}
	})
	return out, err
}

// simulate composes sim.New and the cycle loop for each rate of a sim
// spec, exactly as the engine seeds them.
func (c *composer) simulate(ctx context.Context, syn *synthesis, sp *bsor.SimSpec, trace, parent int) ([]*bsor.Point, error) {
	points := make([]*bsor.Point, len(sp.Rates))
	for i, rate := range sp.Rates {
		var s *sim.Simulator
		var err error
		c.rec.do("sim.setup", trace, parent, func() {
			s, err = sim.New(sim.Config{
				Mesh: syn.topo, Routes: syn.set, VCs: syn.vcs,
				DynamicVC:   syn.alg == "XY" || syn.alg == "YX",
				OfferedRate: rate, WarmupCycles: sp.Warmup, MeasureCycles: sp.Measure,
				Seed: sp.Seed + int64(rate*1000),
			})
		})
		if err != nil {
			return nil, err
		}
		var res *sim.Result
		c.rec.do("sim.run", trace, parent, func() { res, err = s.RunContext(ctx) })
		if err != nil {
			return nil, err
		}
		c.add("sim.points", 1)
		c.add("sim.cycles", float64(res.Cycles))
		c.add("sim.flit_hops", float64(res.FlitHops))
		points[i] = &bsor.Point{
			Offered: rate, Throughput: res.Throughput,
			AvgLatency: res.AvgLatency, AvgTotalLatency: res.AvgTotalLatency,
			LatencyStd: res.LatencyStd, LatencyP99: res.LatencyP99,
			Injected: res.PacketsInjected, Delivered: res.PacketsDelivered,
			Deadlocked: res.Deadlocked,
		}
	}
	return points, nil
}

// certifySet composes the independent certificate check of a synthesis.
func (c *composer) certifySet(syn *synthesis, capacity float64, trace, parent int) (*certify.Certificate, error) {
	var cert *certify.Certificate
	var err error
	c.rec.do("certify", trace, parent, func() {
		c.add("certify.calls", 1)
		in := certify.Instance{Topo: syn.topo, Routes: syn.set, VCs: syn.vcs, Capacity: capacity}
		if syn.breaker != "" {
			var b cdg.Breaker
			if b, err = experiments.BreakerByName(syn.breaker); err != nil {
				return
			}
			in.CDG = b.Break(cdg.NewFull(syn.topo, syn.vcs))
		}
		cert, err = certify.Certify(in)
	})
	return cert, err
}

// batchOp composes one batch op and returns the digest the facade must
// have produced for it.
func (c *composer) batchOp(ctx context.Context, o op, trace int) (string, error) {
	root := c.rec.begin("op", trace, -1)
	defer c.rec.end(root)
	if o.Churn != nil {
		// The churn supervisor interleaves a running sim with fault
		// barriers; its entry point is the layer's public call.
		var res []bsor.ChurnResult
		var err error
		c.rec.do("churn.run", trace, root, func() {
			res, err = bsor.RunChurn(ctx, []bsor.ChurnSpec{*o.Churn})
		})
		if err != nil {
			return "", err
		}
		for _, ev := range res[0].Events {
			c.add("churn.faults", 1)
			c.add("churn.resynth_wall_s", ev.ResynthWall.Seconds())
		}
		return churnDigest(res[0]), nil
	}
	s := *o.Spec
	if s.Sim == nil {
		syn, err := c.synthesize(ctx, s, trace, root, false)
		if err != nil {
			return "", err
		}
		r := syn.rows[0]
		return exploreDigest(r.Breaker, r.MCL, r.AvgHops, r.Err), nil
	}
	syn, err := c.synthesize(ctx, s, trace, root, true)
	if err != nil {
		return "", err
	}
	points, err := c.simulate(ctx, syn, s.Sim, trace, root)
	if err != nil {
		return "", err
	}
	return pointsDigest(points), nil
}

// layerMetrics folds the spans and counters into the per-layer metrics.
func (c *composer) layerMetrics(out map[string]float64) {
	self := selfTimes(c.rec.spans)
	sec := func(name string) float64 { return self[name].Seconds() }
	for _, name := range []string{"topology.build", "traffic.flows", "cdg.full", "cdg.break",
		"flowgraph.build", "route.dijkstra", "route.heuristic", "route.milp", "route.baseline",
		"route.check", "certify", "sim.setup", "sim.run", "churn.run"} {
		key := name + "_s"
		if name == "certify" {
			key = "certify.s"
		}
		out[key] += sec(name)
	}
	for k, v := range c.counts {
		out[k] += v
	}
	snap := map[string]float64{}
	for _, s := range c.col.Snapshot() {
		snap[s.Name] = s.Value
	}
	out["lp.pivots"] += snap["lp_simplex_pivots_total"]
	out["lp.refactorizations"] += snap["lp_refactorizations_total"]
	out["lp.bb_nodes"] += snap["lp_bb_nodes_total"]
	out["route.paths_kept"] += snap["route_paths_kept_total"]
	out["route.paths_deduped"] += snap["route_paths_deduped_total"]
	if p := out["lp.pivots"]; p > 0 {
		out["lp.us_per_pivot"] = out["route.milp_s"] * 1e6 / p
	}
	if h := out["sim.flit_hops"]; h > 0 {
		out["sim.ns_per_flit_hop"] = out["sim.run_s"] * 1e9 / h
	}
}

// traceBatch replays the ops the facade pass ran through the composer,
// records each composed digest next to the facade's, and returns the
// per-layer metrics: composer spans and counters, plus the engine
// counters the facade pass exported into m.
func traceBatch(ctx context.Context, results []opResult, wall time.Duration, m *bsor.Metrics) map[string]float64 {
	comp := newComposer()
	traced, twall := replay(len(results), func(i int) opResult {
		digest, err := comp.batchOp(ctx, results[i].op, i)
		if err != nil {
			digest = "error " + err.Error()
		}
		return opResult{Digest: digest}
	})
	for i := range results {
		results[i].Trace = traced[i].Digest
	}
	layers := map[string]float64{}
	comp.layerMetrics(layers)
	snap := m.Snapshot()
	layers["experiments.jobs"] = snap["engine_jobs_total"]
	layers["experiments.job_busy_s"] = snap["engine_job_seconds_seconds_total"]
	layers["experiments.synth_cache_hits"] = snap["engine_synth_cache_hits_total"]
	layers["experiments.synth_cache_misses"] = snap["engine_synth_cache_misses_total"]
	layers["trace.overhead_frac"] = (twall - wall).Seconds() / wall.Seconds()
	return layers
}
