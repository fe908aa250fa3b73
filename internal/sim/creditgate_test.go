package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cdg"
	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/flowgraph"
	"repro/internal/route"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestCreditGateProperty drives certified deadlock-free route sets on
// seeded random graphs through the buffer-depth / packet-length corners
// where the credit check of the two-phase cycle (switchStage tests the
// downstream buffer's pre-cycle count) actually closes: buffers shallower
// than a packet, down to single-flit buffers holding 16-flit worms. The
// golden configurations (16-flit buffers, 8-flit packets) almost never
// fill a downstream buffer, so this is the test that exercises the gate.
//
// Property: a route set certify accepts never trips the deadlock
// watchdog, whatever the buffering, and the full-scan invariant checker
// holds every few cycles along the way.
func TestCreditGateProperty(t *testing.T) {
	const (
		nodes    = 10
		cycles   = 2500
		watchdog = 300 // no flit moving anywhere this long is a deadlock
	)
	bufDepths := []int{1, 2, 4, 16}
	packetLens := []int{1, 4, 8, 16}
	closed := map[[2]int]int{} // (BufDepth, PacketLen) -> runs where the gate closed
	for seed := int64(1); seed <= 3; seed++ {
		g := topology.NewRandomConnected(nodes, 3, seed)
		flows, err := traffic.RandomFlows(g, 2*nodes, 40, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, vcs := range []int{1, 2} {
			set := certifiedRoutes(t, g, flows, vcs)
			for _, depth := range bufDepths {
				for _, plen := range packetLens {
					name := fmt.Sprintf("seed%d-vc%d-buf%d-len%d", seed, vcs, depth, plen)
					s, err := New(Config{
						Mesh: g, Routes: set, VCs: vcs, BufDepth: depth, PacketLen: plen,
						// Offer one flit per node per cycle: far past saturation,
						// so upstream worms pile into full downstream buffers.
						OfferedRate:  float64(nodes) / float64(plen),
						WarmupCycles: 500, MeasureCycles: cycles - 500,
						DeadlockCycles: watchdog, Seed: seed,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					s.checkEvery = 5
					gateClosed := false
					for c := int64(1); c <= cycles; c++ {
						dead, err := s.Advance(context.Background(), c)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if dead {
							t.Fatalf("%s: deadlock watchdog fired at cycle %d on a certified route set", name, s.Cycle())
						}
						gateClosed = gateClosed || s.creditGateClosed()
					}
					res := s.Finish(false)
					if res.PacketsDelivered == 0 {
						t.Fatalf("%s: nothing delivered", name)
					}
					if gateClosed {
						closed[[2]int{depth, plen}]++
					}
				}
			}
		}
	}
	t.Logf("runs (of 6) per (BufDepth, PacketLen) in which the credit gate closed: %v", closed)
	// The sweep is only worth its runtime if the gate closes wherever a
	// packet outgrows a buffer. Where a whole packet fits it never can:
	// a VC holds one packet at a time, so a downstream buffer is full
	// only once the upstream one has nothing left to send.
	for _, depth := range bufDepths {
		for _, plen := range packetLens {
			n := closed[[2]int{depth, plen}]
			if depth < plen && n == 0 {
				t.Errorf("BufDepth %d, PacketLen %d: credit gate never closed in any run", depth, plen)
			}
			if depth >= plen && n != 0 {
				t.Errorf("BufDepth %d, PacketLen %d: credit gate closed in %d runs though a packet fits a buffer", depth, plen, n)
			}
		}
	}
}

// certifiedRoutes synthesizes BSOR routes for flows over the graph's
// up*/down* breakers and certifies them against the chosen CDG.
func certifiedRoutes(t *testing.T, g topology.Topology, flows []flowgraph.Flow, vcs int) *route.Set {
	t.Helper()
	breakers := cdg.GraphBreakers(g.NumNodes())
	set, best, err := core.Best(g, flows, core.Config{VCs: vcs, Breakers: breakers})
	if err != nil {
		t.Fatalf("vc%d: synthesis: %v", vcs, err)
	}
	for _, b := range breakers {
		if b.Name() != best.Breaker {
			continue
		}
		in := certify.Instance{Topo: g, CDG: b.Break(cdg.NewFull(g, vcs)), Routes: set, VCs: vcs}
		cert, err := certify.Certify(in)
		if err != nil {
			t.Fatalf("vc%d: certify: %v", vcs, err)
		}
		if err := cert.Check(in); err != nil {
			t.Fatalf("vc%d: certificate check: %v", vcs, err)
		}
		return set
	}
	t.Fatalf("vc%d: best breaker %q not in the explored set", vcs, best.Breaker)
	return nil
}

// creditGateClosed reports whether, between cycles, some routed buffer
// with a flit to send faces a full downstream buffer — the state in which
// the next switchStage denies it a credit.
func (s *Simulator) creditGateClosed() bool {
	for _, ch := range s.activeChans {
		for bi := s.chanWait[ch]; bi >= 0; bi = s.bufs[bi].next {
			b := &s.bufs[bi]
			if b.count > 0 && s.bufs[ch*s.nVCs+b.outVC].count >= s.depth {
				return true
			}
		}
	}
	return false
}
