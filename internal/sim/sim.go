package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Simulator holds the full network state for one run.
//
// The core is data-oriented: per-cycle work is proportional to the
// *activity* in the network, not its size. Every stage consumes an
// incrementally maintained active set instead of scanning all buffers:
//
//   - generate() drains the arrival heap (generate.go) — O(packets due).
//   - injectStage visits only activeInj, the nodes whose flows have
//     queued packets or in-progress transfers.
//   - routeStage visits only routePending, the buffers whose head flit
//     is an unrouted header (entered when a header lands in an empty
//     inactive buffer, left on successful VC allocation).
//   - switchStage/ejectStage visit only activeChans/activeEject, the
//     channels and nodes with at least one routed VC on their intrusive
//     wait list (entered at VA, left when the tail departs).
//
// An idle 16x16 network therefore simulates a cycle in a handful of
// branch checks; a loaded one pays per in-flight packet, never per
// buffer. Each cycle has two phases: the stages above compute against
// the buffer state as it stood at the start of the cycle, recording
// dequeues and flit arrivals, and commit applies them (the two-phase
// cycle, DESIGN.md §8). See buffers.go for the flat buffer layout and
// invariants.go for the full-scan cross-check internal tests run.
type Simulator struct {
	cfg  Config
	mesh topology.Topology
	// tables holds one flat routing table per epoch; SwapRoutes appends.
	// Every table is retained for the lifetime of the run: in-flight
	// packets look up the epoch they were launched under, and with a
	// bounded number of swaps (one escape + one repair per fault event)
	// the retained set stays small.
	tables   []*routingTable
	curEpoch int32
	// deadChan marks channels failed by DisableChannels; nil until the
	// first fault (zero-churn runs never allocate or consult it).
	deadChan []bool
	rng      *rand.Rand

	// Flat geometry: see buffers.go.
	nVCs    int32
	depth   int32
	injBase int32 // flat index of the first injection buffer

	bufs      []vcBuf
	flits     []flitRef // ring arena: buffer i owns [i*depth, (i+1)*depth)
	stagedCnt []int32   // per injection buffer: deliveries staged this cycle

	packets  []packet
	freePkts []int32 // delivered packet records available for reuse

	// Per-flow injection state.
	injectProb []float64 // packets/cycle at OfferedRate (base demands)
	invLogQ    []float64 // 1/ln(1-p) per flow, 0 when p >= 1 (gap is 1)
	demandSum  float64
	arrivals   arrivalHeap
	srcQueue   []i32ring // queued packet indices per flow
	transfer   []injTransfer
	flowNode   []int32 // source node per flow
	flowPaused []bool  // arrival due but source queue full; resumed on pop

	// Active sets (see above).
	routePending []int32
	vaRetry      []int32 // channels flagged for the next VA pass
	activeChans  []int32
	activeEject  []int32
	activeInj    []int32
	scratch      []int32

	// Deferred effects of the current cycle, applied by commit.
	pops    []int32      // buffers with a dequeue pending (dups allowed)
	popCnt  []int32      // per buffer: dequeues deferred within the cycle
	staged  []stagedFlit // flit arrivals, in staging order
	resumed []int32      // flows whose arrival process restarts this cycle

	vaWait      []int32 // per channel: head of VA-stalled wait list, -1 empty
	vaFlagged   []bool  // per channel: queued in vaRetry
	chanWait    []int32 // per channel: head of routed-VC wait list, -1 empty
	ejectWait   []int32 // per node: head of ejecting-VC wait list, -1 empty
	chanQueued  []bool
	ejectQueued []bool
	injQueued   []bool
	flowWork    []bool  // flow has queued packets or an active transfer
	nodeWork    []int32 // number of flows with work per node

	// Round-robin pointers.
	rrOut  []int // per channel: switch-allocation priority
	rrEjct []int // per node
	rrInj  []int // per node: flow service order

	// nodeFlows[node] lists flow indices sourced at node.
	nodeFlows [][]int32

	cycle     int64
	lastMove  int64
	inFlight  int64 // flits currently inside buffers
	delivered int64
	flitHops  int64

	// Fault accounting (see DisableChannels).
	droppedFlits   int64
	droppedPackets int64
	requeuedPkts   int64

	// checkEvery > 0 runs the full-scan invariant checker every that many
	// cycles (tests only; see invariants.go).
	checkEvery int64

	// measurement accumulators
	mInjected    int64
	mDelivered   int64
	mLatencySum  int64
	mTotalLatSum int64
	perFlow      []int64
	perFlowLat   []stats.Summary
	latencyHist  *stats.Histogram

	// Out-of-band instruments (nil when Config.Metrics is nil); flushed
	// at the 1024-cycle poll point, never inside the per-cycle path.
	mCycles      *metrics.Counter
	mActiveSet   *metrics.Gauge
	mFlushedCycl int64
}

type injTransfer struct {
	pkt     int32 // -1 when idle
	nextIdx int16
	buf     int32 // flat injection-buffer index being streamed into
}

type stagedFlit struct {
	f   flitRef
	buf int32 // flat destination-buffer index
}

// New builds a simulator; Run executes it. A Simulator is single-use.
func New(cfg Config) (*Simulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	tbl, err := buildTable(cfg.Routes)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:    cfg,
		mesh:   cfg.Mesh,
		tables: []*routingTable{tbl},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	nc := s.mesh.NumChannels()
	nn := s.mesh.NumNodes()
	s.nVCs = int32(cfg.VCs)
	s.depth = int32(cfg.BufDepth)
	s.injBase = int32(nc) * s.nVCs
	nBufs := int32(nc+nn) * s.nVCs
	s.bufs = make([]vcBuf, nBufs)
	s.flits = make([]flitRef, int(nBufs)*int(s.depth))
	s.stagedCnt = make([]int32, nBufs)
	s.popCnt = make([]int32, nBufs)
	for bi := range s.bufs {
		b := &s.bufs[bi]
		b.owner, b.next, b.prev = -1, -1, -1
		if int32(bi) < s.injBase {
			b.node = int32(s.mesh.Channel(topology.ChannelID(int32(bi) / s.nVCs)).Dst)
		} else {
			b.node = (int32(bi) - s.injBase) / s.nVCs
		}
	}
	flows := cfg.Routes.Routes
	s.injectProb = make([]float64, len(flows))
	s.srcQueue = make([]i32ring, len(flows))
	s.transfer = make([]injTransfer, len(flows))
	s.flowNode = make([]int32, len(flows))
	s.flowWork = make([]bool, len(flows))
	s.perFlow = make([]int64, len(flows))
	s.nodeFlows = make([][]int32, nn)
	for i, r := range flows {
		s.demandSum += r.Flow.Demand
		s.transfer[i].pkt = -1
		s.flowNode[i] = int32(r.Flow.Src)
		s.nodeFlows[r.Flow.Src] = append(s.nodeFlows[r.Flow.Src], int32(i))
	}
	s.invLogQ = make([]float64, len(flows))
	for i, r := range flows {
		if s.demandSum > 0 {
			s.injectProb[i] = cfg.OfferedRate * r.Flow.Demand / s.demandSum
		}
		if p := s.injectProb[i]; p > 0 && p < 1 {
			s.invLogQ[i] = 1 / math.Log1p(-p)
		}
	}
	s.chanWait = make([]int32, nc)
	s.vaWait = make([]int32, nc)
	s.ejectWait = make([]int32, nn)
	for i := range s.chanWait {
		s.chanWait[i] = -1
		s.vaWait[i] = -1
	}
	for i := range s.ejectWait {
		s.ejectWait[i] = -1
	}
	s.vaFlagged = make([]bool, nc)
	s.flowPaused = make([]bool, len(flows))
	s.chanQueued = make([]bool, nc)
	s.ejectQueued = make([]bool, nn)
	s.injQueued = make([]bool, nn)
	s.nodeWork = make([]int32, nn)
	s.rrOut = make([]int, nc)
	s.rrEjct = make([]int, nn)
	s.rrInj = make([]int, nn)
	s.perFlowLat = make([]stats.Summary, len(flows))
	s.latencyHist = stats.NewHistogram(0, 4096, 256)
	if cfg.Metrics != nil {
		s.mCycles = cfg.Metrics.Counter("sim_cycles_total")
		s.mActiveSet = cfg.Metrics.Gauge("sim_active_set_size")
	}
	if cfg.RateVariation == nil {
		s.initArrivals()
	}
	return s, nil
}

// Run simulates warmup plus measurement and returns the result.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the run polls ctx
// every 1024 simulated cycles (amortized to a no-op against the
// per-cycle work). A cancelled run yields no Result — partial
// statistics from a truncated measurement window would be silently
// biased toward warm-up behavior.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	deadlocked, err := s.advance(ctx, total)
	if err != nil {
		return nil, err
	}
	return s.buildResult(deadlocked), nil
}

// Advance steps the simulation forward to absolute cycle target (a no-op
// when already there), for callers that interleave simulation with live
// reconfiguration — apply faults with DisableChannels, swap tables with
// SwapRoutes, then Advance again. It reports whether the deadlock
// watchdog fired; after a deadlock the state is frozen and further calls
// return immediately. Collect the final statistics with Finish.
func (s *Simulator) Advance(ctx context.Context, target int64) (deadlocked bool, err error) {
	return s.advance(ctx, target)
}

// Cycle returns the current simulation cycle.
func (s *Simulator) Cycle() int64 { return s.cycle }

// DeliveredTotal returns packets delivered since cycle 0 (warmup
// included), the raw series churn supervisors difference to measure
// throughput dips.
func (s *Simulator) DeliveredTotal() int64 { return s.delivered }

// Epoch returns the current routing-table epoch (0 before any swap).
func (s *Simulator) Epoch() int32 { return s.curEpoch }

// Finish assembles the Result after stepping with Advance.
func (s *Simulator) Finish(deadlocked bool) *Result { return s.buildResult(deadlocked) }

// advance runs the cycle loop up to (not past) absolute cycle target.
// On deadlock it returns with s.cycle frozen at the detecting cycle,
// matching the pre-stepping-API behavior of Run (Result.Cycles reports
// the cycle the watchdog fired on).
func (s *Simulator) advance(ctx context.Context, target int64) (deadlocked bool, err error) {
	for ; s.cycle < target; s.cycle++ {
		if s.cycle&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			s.flushMetrics()
		}
		s.generate()
		s.injectStage()
		s.routeStage()
		s.vaStage()
		s.switchStage()
		s.ejectStage()
		s.commit()
		if s.checkEvery > 0 && s.cycle%s.checkEvery == 0 {
			if err := s.checkInvariants(); err != nil {
				return false, err
			}
		}
		if s.inFlight > 0 && s.cycle-s.lastMove > s.cfg.DeadlockCycles {
			return true, nil
		}
	}
	return false, nil
}

// flushMetrics pushes the cycle delta since the last flush and the
// current active-set size to the collector. Called at the 1024-cycle
// poll point and once at result build, so instrumentation overhead is
// amortized to nothing against the per-cycle work.
func (s *Simulator) flushMetrics() {
	if s.mCycles == nil {
		return
	}
	s.mCycles.Add(s.cycle - s.mFlushedCycl)
	s.mFlushedCycl = s.cycle
	s.mActiveSet.Set(int64(len(s.routePending) + len(s.activeChans) + len(s.activeEject) + len(s.activeInj)))
}

// commit applies the cycle's deferred effects: the recorded dequeues,
// then the staged flit arrivals in staging order (injections before
// forwarded flits), queueing RC work for every header that lands in an
// empty unrouted buffer. Arrival processes of flows resumed this cycle
// restart last, with their gaps drawn in ascending flow order:
// memoryless processes are indifferent to when within the cycle the
// draw happens, and the fixed order keeps the RNG stream independent of
// the order injectStage visits nodes in.
func (s *Simulator) commit() {
	for _, bi := range s.pops {
		b := &s.bufs[bi]
		b.head++
		if b.head == s.depth {
			b.head = 0
		}
		b.count--
		s.popCnt[bi] = 0
	}
	s.pops = s.pops[:0]
	for _, d := range s.staged {
		b := &s.bufs[d.buf]
		s.pushFlit(d.buf, b, d.f)
		if d.buf >= s.injBase {
			s.stagedCnt[d.buf]--
			s.inFlight++ // a new flit entered the network
		}
		if b.count == 1 && !b.active && !b.pending {
			b.pending = true
			s.routePending = append(s.routePending, d.buf)
		}
	}
	s.staged = s.staged[:0]
	if len(s.resumed) > 0 {
		slices.Sort(s.resumed)
		for _, fi := range s.resumed {
			s.arrivals.push(arrival{at: s.cycle + s.geomGap(fi), flow: fi})
		}
		s.resumed = s.resumed[:0]
	}
}

func (s *Simulator) buildResult(deadlocked bool) *Result {
	s.flushMetrics()
	res := &Result{
		Cycles:           s.cycle,
		PacketsInjected:  s.mInjected,
		PacketsDelivered: s.mDelivered,
		PerFlowDelivered: s.perFlow,
		FlitHops:         s.flitHops,
		Deadlocked:       deadlocked,
		DroppedFlits:     s.droppedFlits,
		DroppedPackets:   s.droppedPackets,
		RequeuedPackets:  s.requeuedPkts,
	}
	if s.cfg.MeasureCycles > 0 {
		res.Throughput = float64(s.mDelivered) / float64(s.cfg.MeasureCycles)
	}
	if s.mDelivered > 0 {
		res.AvgLatency = float64(s.mLatencySum) / float64(s.mDelivered)
		res.AvgTotalLatency = float64(s.mTotalLatSum) / float64(s.mDelivered)
		res.LatencyP50 = s.latencyHist.Percentile(50)
		res.LatencyP95 = s.latencyHist.Percentile(95)
		res.LatencyP99 = s.latencyHist.Percentile(99)
	}
	res.PerFlowLatency = make([]float64, len(s.perFlowLat))
	var merged stats.Summary
	for i := range s.perFlowLat {
		res.PerFlowLatency[i] = s.perFlowLat[i].Mean()
		merged.Merge(&s.perFlowLat[i])
	}
	res.LatencyStd = merged.Std()
	return res
}

// maxSourceQueue bounds open-loop generation so saturated runs stay in
// memory; generation pauses while a flow's queue is full. Together with
// the packet free list this caps packet-record memory at (queued +
// in-flight), independent of how many packets a long run delivers.
const maxSourceQueue = 1 << 13

// injectStage moves flits from source queues into injection-port VC
// buffers, up to LocalBandwidth flits per node per cycle, visiting only
// the nodes with pending injection work.
func (s *Simulator) injectStage() {
	for i := 0; i < len(s.activeInj); {
		n := s.activeInj[i]
		if s.nodeWork[n] == 0 {
			last := len(s.activeInj) - 1
			s.activeInj[i] = s.activeInj[last]
			s.activeInj = s.activeInj[:last]
			s.injQueued[n] = false
			continue
		}
		s.injectNode(n)
		i++
	}
}

func (s *Simulator) injectNode(n int32) {
	flowsHere := s.nodeFlows[n]
	nf := len(flowsHere)
	budget := s.cfg.LocalBandwidth
	rr := s.rrInj[n]
	// Start new transfers: queued packets claim free injection VCs in
	// round-robin order. Priority rotates past the last flow granted a
	// VC — grant-based rotation, unlike the seed core's once-per-cycle
	// rotation, which could phase-lock with the periodic VC-release
	// pattern of a saturated node and starve a flow indefinitely (the
	// transmitter workload exhibited this under some seeds).
	for k := 0; k < nf; k++ {
		fi := flowsHere[(rr+k)%nf]
		if s.transfer[fi].pkt >= 0 || s.srcQueue[fi].len() == 0 {
			continue
		}
		vc := s.freeInjVC(n)
		if vc < 0 {
			break // all injection VCs owned; no later flow can claim either
		}
		pkt := s.srcQueue[fi].pop()
		if s.flowPaused[fi] {
			// A slot freed for a generation-paused flow: the arrival
			// process restarts memorylessly, its gap drawn by commit.
			s.flowPaused[fi] = false
			s.resumed = append(s.resumed, fi)
		}
		bi := s.injBase + n*s.nVCs + vc
		s.bufs[bi].owner = pkt
		s.packets[pkt].epoch = s.curEpoch // routed by the table of launch time
		s.transfer[fi] = injTransfer{pkt: pkt, nextIdx: 0, buf: bi}
		s.rrInj[n] = (rr + k + 1) % nf
	}
	// Stream flits of active transfers into their buffers.
	for k := 0; k < nf && budget > 0; k++ {
		fi := flowsHere[(rr+k)%nf]
		tr := &s.transfer[fi]
		if tr.pkt < 0 {
			continue
		}
		b := &s.bufs[tr.buf]
		for budget > 0 && tr.pkt >= 0 && b.count+s.stagedCnt[tr.buf] < s.depth {
			if tr.nextIdx == 0 {
				s.packets[tr.pkt].enterT = s.cycle
			}
			s.lastMove = s.cycle
			s.staged = append(s.staged, stagedFlit{f: flitRef{pkt: tr.pkt, idx: tr.nextIdx}, buf: tr.buf})
			s.stagedCnt[tr.buf]++
			tr.nextIdx++
			budget--
			if int(tr.nextIdx) == s.cfg.PacketLen {
				tr.pkt = -1 // transfer complete; VC stays owned until tail leaves
				if s.srcQueue[fi].len() == 0 {
					s.flowWork[fi] = false
					s.nodeWork[n]--
				}
			}
		}
	}
}

// freeInjVC returns the index of an unowned injection VC at node n, or -1.
func (s *Simulator) freeInjVC(n int32) int32 {
	base := s.injBase + n*s.nVCs
	for vc := int32(0); vc < s.nVCs; vc++ {
		if s.bufs[base+vc].owner < 0 {
			return vc
		}
	}
	return -1
}

// routeStage performs the RC stage event-driven: headers that arrived
// last cycle (routePending) look up their next hop, ejecting buffers
// activate immediately, and the rest join their target channel's VA
// wait list.
func (s *Simulator) routeStage() {
	for _, bi := range s.routePending {
		b := &s.bufs[bi]
		head := s.headFlit(bi, b)
		if head.idx != 0 {
			// Body flit at buffer head while inactive can only happen after
			// a tail release bug; the invariant checker would flag it.
			continue
		}
		arrival := topology.InvalidChannel
		if bi < s.injBase {
			arrival = topology.ChannelID(bi / s.nVCs)
		}
		p := &s.packets[head.pkt]
		entry := s.tables[p.epoch].lookup(int(p.flow), arrival)
		if entry.next == topology.InvalidChannel {
			b.pending = false
			b.active, b.eject = true, true
			b.readyAt = s.cycle + int64(s.cfg.PipelineStages) - 1
			s.ejectPush(bi)
			continue
		}
		// outVC holds the statically requested VC until VA grants one.
		b.outCh, b.outVC = int32(entry.next), entry.vc
		s.sortedInsert(&s.vaWait[entry.next], bi)
		s.vaFlag(int32(entry.next))
	}
	s.routePending = s.routePending[:0]
}

// vaStage performs the VA stage for the flagged channels — those with
// new waiters or with a VC freed since the last attempt — because an
// unflagged channel's waiters would just fail the same owner checks
// again.
//
// Waiters are kept and served in ascending buffer-index order,
// reproducing the pre-refactor full scan's priority: channel buffers (in
// channel id order) claim a contested downstream VC before any injection
// buffer. At saturation this ordering is load-bearing — it gives traffic
// already in the network priority over new injections, keeping
// in-network queueing (and thus the reported network latency) low while
// the excess waits in the source queues. Buffers contending for
// different channels never interact, so per-channel ordering is the only
// ordering that matters (and VA order across channels is inert).
func (s *Simulator) vaStage() {
	for _, ch := range s.vaRetry {
		s.vaFlagged[ch] = false
		for bi := s.vaWait[ch]; bi >= 0; {
			next := s.bufs[bi].next
			s.tryClaim(ch, bi)
			bi = next
		}
	}
	s.vaRetry = s.vaRetry[:0]
}

// vaFlag queues channel ch for a VA pass in the next vaStage.
func (s *Simulator) vaFlag(ch int32) {
	if !s.vaFlagged[ch] {
		s.vaFlagged[ch] = true
		s.vaRetry = append(s.vaRetry, ch)
	}
}

// tryClaim attempts to allocate a VC of channel ch to the VA-stalled
// buffer bi: the statically requested one, or any free one under dynamic
// allocation. On success the buffer leaves the VA wait list, joins the
// channel's switch-allocation wait list, and becomes active.
func (s *Simulator) tryClaim(ch, bi int32) {
	b := &s.bufs[bi]
	downBase := ch * s.nVCs
	vc := int32(-1)
	if s.cfg.DynamicVC {
		for v := int32(0); v < s.nVCs; v++ {
			if s.bufs[downBase+v].owner < 0 {
				vc = v
				break
			}
		}
	} else if s.bufs[downBase+b.outVC].owner < 0 {
		vc = b.outVC
	}
	if vc < 0 {
		return // still stalled; a release of this channel re-flags it
	}
	s.bufs[downBase+vc].owner = s.headFlit(bi, b).pkt
	s.unlink(bi) // leaves vaWait[ch]; dispatch happens on pending
	b.pending = false
	b.active, b.eject = true, false
	b.outVC = vc
	b.readyAt = s.cycle + int64(s.cfg.PipelineStages) - 1
	s.chanPush(ch, bi)
}

// switchStage arbitrates each active output channel (one flit per
// cycle). Dequeues and downstream pushes are deferred to commit, so
// every count read here — including the credit check on the downstream
// buffer — is the pre-cycle value: a full-but-draining downstream
// buffer admits the next flit one cycle after the dequeue that frees
// the slot, whatever order the channels are visited in.
func (s *Simulator) switchStage() {
	for i := 0; i < len(s.activeChans); {
		ch := s.activeChans[i]
		if s.chanWait[ch] < 0 {
			last := len(s.activeChans) - 1
			s.activeChans[i] = s.activeChans[last]
			s.activeChans = s.activeChans[:last]
			s.chanQueued[ch] = false
			continue
		}
		cands := s.scratch[:0]
		for bi := s.chanWait[ch]; bi >= 0; bi = s.bufs[bi].next {
			b := &s.bufs[bi]
			if b.count == 0 || s.cycle < b.readyAt {
				continue
			}
			down := ch*s.nVCs + b.outVC
			if s.bufs[down].count >= s.depth {
				continue // no credit
			}
			cands = append(cands, bi)
		}
		s.scratch = cands
		if len(cands) > 0 {
			pick := cands[s.rrOut[ch]%len(cands)]
			s.rrOut[ch]++
			s.forward(pick)
		}
		i++
	}
}

// ejectStage consumes up to LocalBandwidth flits per node with ejection
// work. Dequeues are deferred, so candidate eligibility within the
// budget loop uses the effective count (count minus this cycle's
// recorded pops).
func (s *Simulator) ejectStage() {
	for i := 0; i < len(s.activeEject); {
		n := s.activeEject[i]
		if s.ejectWait[n] < 0 {
			last := len(s.activeEject) - 1
			s.activeEject[i] = s.activeEject[last]
			s.activeEject = s.activeEject[:last]
			s.ejectQueued[n] = false
			continue
		}
		for budget := s.cfg.LocalBandwidth; budget > 0; budget-- {
			cands := s.scratch[:0]
			for bi := s.ejectWait[n]; bi >= 0; bi = s.bufs[bi].next {
				b := &s.bufs[bi]
				if b.count-s.popCnt[bi] > 0 && s.cycle >= b.readyAt {
					cands = append(cands, bi)
				}
			}
			s.scratch = cands
			if len(cands) == 0 {
				break
			}
			pick := cands[s.rrEjct[n]%len(cands)]
			s.rrEjct[n]++
			s.ejectFlit(pick)
		}
		i++
	}
}

// forward records the dequeue of buffer bi's head flit and stages it
// into the downstream buffer for commit.
func (s *Simulator) forward(bi int32) {
	b := &s.bufs[bi]
	f := s.headFlit(bi, b) // channel waiters dequeue at most once per cycle
	s.pops = append(s.pops, bi)
	s.popCnt[bi]++
	s.staged = append(s.staged, stagedFlit{f: f, buf: b.outCh*s.nVCs + b.outVC})
	s.flitHops++
	if int(f.idx) == s.cfg.PacketLen-1 {
		s.release(bi, b) // tail left: free this VC for the next packet
	}
	s.lastMove = s.cycle
}

// ejectFlit consumes the next flit of buffer bi at its destination; on
// the tail, statistics are recorded and the packet record is recycled.
func (s *Simulator) ejectFlit(bi int32) {
	b := &s.bufs[bi]
	pos := b.head + s.popCnt[bi]
	if pos >= s.depth {
		pos -= s.depth
	}
	f := s.flits[bi*s.depth+pos]
	s.pops = append(s.pops, bi)
	s.popCnt[bi]++
	s.inFlight--
	s.flitHops++
	s.lastMove = s.cycle
	if int(f.idx) == s.cfg.PacketLen-1 {
		s.release(bi, b)
		p := &s.packets[f.pkt]
		p.doneT = s.cycle
		s.delivered++
		if s.cycle >= s.cfg.WarmupCycles {
			s.mDelivered++
			s.perFlow[p.flow]++
			lat := p.doneT - p.enterT
			s.mLatencySum += lat
			s.mTotalLatSum += p.doneT - p.createT
			s.perFlowLat[p.flow].Add(float64(lat))
			s.latencyHist.Add(float64(lat))
		}
		s.freePkts = append(s.freePkts, f.pkt)
	}
}
