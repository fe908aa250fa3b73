package sim

import "math"

// Packet generation. Without a RateVariation hook, each flow is an
// independent Bernoulli(p) process exactly as before, but sampled by
// geometric inter-arrival inversion: one RNG draw per *packet* instead of
// one per flow per cycle, with the next arrival of every flow kept in a
// (cycle, flow)-ordered binary min-heap that generate() drains up to the
// current cycle. A 16x16 mesh at low load thus costs a couple of heap
// peeks per cycle instead of hundreds of uniform draws.
//
// The arrival processes are distribution-identical to the per-cycle
// Bernoulli draws — including while a full source queue suppresses
// generation, where resumption is memoryless (see injectNode) — but the
// RNG stream is consumed in a different order, so per-seed results
// differ numerically from the pre-refactor core while remaining
// statistically equivalent (pinned by the golden tests, see
// golden_test.go and DESIGN.md §8).
//
// With RateVariation set, p changes every cycle and inter-arrival
// inversion does not apply; generateVariation keeps the per-cycle
// Bernoulli draw but hoists the OfferedRate/demandSum division out of
// the flow loop. The hook is still called exactly once per flow per
// cycle — Markov-modulated processes advance their state per call and
// must observe every cycle.

// arrival schedules flow's next packet at cycle at.
type arrival struct {
	at   int64
	flow int32
}

// arrivalHeap is a hand-rolled binary min-heap ordered by (at, flow);
// the flow tiebreak makes the drain order — and therefore the RNG
// stream — deterministic for a fixed seed.
type arrivalHeap []arrival

func (h arrivalHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].flow < h[j].flow)
}

func (h *arrivalHeap) push(a arrival) {
	*h = append(*h, a)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !hh.less(i, p) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
}

func (h *arrivalHeap) pop() arrival {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	*h = hh[:n]
	hh = hh[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && hh.less(l, m) {
			m = l
		}
		if r < n && hh.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		hh[i], hh[m] = hh[m], hh[i]
		i = m
	}
	return top
}

// geomGap samples the number of cycles until flow's next Bernoulli
// success (geometric distribution, support >= 1) by inversion: one
// uniform draw and one log per packet, against the flow's precomputed
// 1/ln(1-p).
func (s *Simulator) geomGap(flow int32) int64 {
	inv := s.invLogQ[flow]
	if inv == 0 {
		return 1 // p >= 1: a success every cycle
	}
	u := s.rng.Float64()
	g := 1 + int64(math.Log1p(-u)*inv)
	if g < 1 {
		g = 1
	}
	return g
}

// initArrivals seeds the heap with every flow's first arrival, in flow
// order. The first success of a Bernoulli(p) process starting at cycle 0
// lands after geomGap-1 failures.
func (s *Simulator) initArrivals() {
	for i, p := range s.injectProb {
		if p <= 0 {
			continue
		}
		s.arrivals.push(arrival{at: s.geomGap(int32(i)) - 1, flow: int32(i)})
	}
}

// generate creates the packets due this cycle.
func (s *Simulator) generate() {
	if s.cfg.RateVariation != nil {
		s.generateVariation()
		return
	}
	for len(s.arrivals) > 0 && s.arrivals[0].at <= s.cycle {
		a := s.arrivals.pop()
		if s.srcQueue[a.flow].len() >= maxSourceQueue {
			// Source queue full: open-loop generation pauses, dropping
			// the due arrival just as the seed core suppressed Bernoulli
			// trials while full. The flow leaves the heap entirely
			// (saturated flows would otherwise churn it every cycle);
			// injectNode restarts the process when a slot frees.
			s.flowPaused[a.flow] = true
			continue
		}
		s.emit(a.flow)
		s.arrivals.push(arrival{at: s.cycle + s.geomGap(a.flow), flow: a.flow})
	}
}

// generateVariation is the per-cycle Bernoulli path used when a
// RateVariation hook supplies time-varying demands. The hook runs once
// per flow per cycle (its Markov state must advance every cycle), and
// the offered-rate normalization is hoisted out of the loop.
func (s *Simulator) generateVariation() {
	scale := 0.0
	if s.demandSum > 0 {
		scale = s.cfg.OfferedRate / s.demandSum
	}
	hook := s.cfg.RateVariation
	for i := range s.injectProb {
		p := scale * hook(i)
		if p <= 0 || s.srcQueue[i].len() >= maxSourceQueue {
			continue
		}
		if p < 1 && s.rng.Float64() >= p {
			continue
		}
		s.emit(int32(i))
	}
}

// emit queues one new packet on flow fi's source queue, reusing a
// delivered packet record when one is free, and flags the flow's node
// for injection work.
func (s *Simulator) emit(fi int32) {
	var pi int32
	if n := len(s.freePkts); n > 0 {
		pi = s.freePkts[n-1]
		s.freePkts = s.freePkts[:n-1]
		s.packets[pi] = packet{flow: fi, createT: s.cycle, enterT: -1}
	} else {
		s.packets = append(s.packets, packet{flow: fi, createT: s.cycle, enterT: -1})
		pi = int32(len(s.packets) - 1)
	}
	s.srcQueue[fi].push(pi)
	if s.cycle >= s.cfg.WarmupCycles {
		s.mInjected++
	}
	if !s.flowWork[fi] {
		s.flowWork[fi] = true
		n := s.flowNode[fi]
		s.nodeWork[n]++
		if !s.injQueued[n] {
			s.injQueued[n] = true
			s.activeInj = append(s.activeInj, n)
		}
	}
}
