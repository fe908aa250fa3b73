package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer, and the value is set by a handful of outliers.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 1) of samples by the
// nearest-rank rule, and false when fewer than minBeyond samples lie
// above that rank.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// The epsilon keeps q*n from rounding up past an exact rank
	// (0.91*100 is 91.00000000000001).
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-1-rank >= minBeyond
}

// median is the unconditional middle value (for repeated set-up
// timings, where the beyond-rule does not apply).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// openLoopTiming accounts one open-loop request: latency runs from when
// the request was due, so a stalled generator charges its stall to every
// request it delayed; lag is how late the generator sent it.
func openLoopTiming(due, sent, done time.Time) (latency, lag time.Duration) {
	lag = sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return done.Sub(due), lag
}

// span is one timed call into a layer. Parent is the index of the span
// whose interval caused it (-1 for a root); spans of one operation share
// Trace.
type span struct {
	Name   string
	Trace  int
	Parent int
	Start  time.Time
	End    time.Time
}

// recorder keeps spans in memory; the totals are computed when read.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, trace, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: time.Now()})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	now := time.Now()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// do times fn as a span.
func (r *recorder) do(name string, trace, parent int, fn func()) {
	i := r.begin(name, trace, parent)
	defer r.end(i)
	fn()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children are merged
// first, so concurrent children are not subtracted twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.End.Sub(s.Start) - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// gate compares the digests a run produced with the committed reference
// and returns one message per missing or differing key.
func gate(ref, got map[string]string) []string {
	var bad []string
	for k, v := range got {
		want, ok := ref[k]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("no reference for %s", k))
		case want != v:
			bad = append(bad, fmt.Sprintf("%s: got %s, reference %s", k, v, want))
		}
	}
	sort.Strings(bad)
	return bad
}
