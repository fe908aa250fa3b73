package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/bsor"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[len(hundred)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.5, 50, true},
		{0.9, 90, true},   // exactly ten beyond
		{0.91, 91, false}, // nine beyond
		{0.99, 99, false},
	} {
		got, ok := percentile(hundred, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v of 1..100 = %v, %v; want %v, %v", c.q*100, got, ok, c.want, c.ok)
		}
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	if got, ok := percentile(thousand, 0.99); got != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", got, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestOpenLoopLatencyRunsFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	lat, lag := openLoopTiming(due, due.Add(5*time.Millisecond), due.Add(12*time.Millisecond))
	if lat != 12*time.Millisecond || lag != 5*time.Millisecond {
		t.Errorf("late send: latency %v lag %v; want 12ms 5ms", lat, lag)
	}
	lat, lag = openLoopTiming(due, due.Add(-time.Millisecond), due.Add(3*time.Millisecond))
	if lat != 3*time.Millisecond || lag != 0 {
		t.Errorf("early send: latency %v lag %v; want 3ms 0", lat, lag)
	}
}

func TestSpanSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "op", Parent: -1, Start: at(0), End: at(100)},
		// Overlapping children cover 10..40 once; the last one is clipped
		// to the parent's end.
		{Name: "cdg.break", Parent: 0, Start: at(10), End: at(30)},
		{Name: "route.milp", Parent: 0, Start: at(20), End: at(40)},
		{Name: "sim.run", Parent: 0, Start: at(90), End: at(120)},
		// A grandchild reduces its own parent only.
		{Name: "lp", Parent: 2, Start: at(25), End: at(35)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"op": 60 * time.Millisecond, "cdg.break": 20 * time.Millisecond,
		"route.milp": 10 * time.Millisecond, "sim.run": 30 * time.Millisecond, "lp": 10 * time.Millisecond,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

func TestGateRejectsCorruptedReference(t *testing.T) {
	ref, err := os.ReadFile(filepath.Join("ref", "synth-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	var good map[string]string
	if err := json.Unmarshal(ref, &good); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for k, v := range good {
		got[k] = v
	}
	if bad := gate(good, got); len(bad) != 0 {
		t.Fatalf("gate rejected the reference itself: %v", bad)
	}
	corrupt := map[string]string{}
	var victim string
	for k, v := range good {
		corrupt[k] = v
		victim = k
	}
	corrupt[victim] += "0"
	if bad := gate(corrupt, got); len(bad) != 1 {
		t.Errorf("gate against a reference with one corrupted digest: %d problems, want 1", len(bad))
	}
	delete(corrupt, victim)
	if bad := gate(corrupt, got); len(bad) != 1 {
		t.Errorf("gate against a reference missing one key: %d problems, want 1", len(bad))
	}
	if err := checkAnchors(good); err != nil {
		t.Error(err)
	}
	for k := range anchors {
		if _, ok := good[k]; !ok {
			t.Errorf("paper anchor %s is not in the reference", k)
		}
	}
}

func TestSpellingsShareOneCanonicalKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := bsor.Spec{Topo: bsor.Mesh(8, 8), Workload: "transpose", Algorithm: "BSOR-Dijkstra", Demand: 20,
		Sim: &bsor.SimSpec{Rates: []float64{5, 10}, Warmup: 1000, Measure: 4000, Seed: 2}}
	keys := map[string]bool{}
	bodies := map[string]bool{}
	for i := 0; i < 50; i++ {
		body := spell(rng, spec)
		bodies[string(body)] = true
		r, err := newRequest(0, "sim", body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		keys[r.key] = true
	}
	if len(keys) != 1 || len(bodies) < 10 {
		t.Errorf("50 spellings: %d distinct documents, %d keys; want many documents, 1 key", len(bodies), len(keys))
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, _, err := schedule(7, 2, []byte(`{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := schedule(7, 2, []byte(`{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose"}`))
	if len(a) != len(b) || len(a) < 100 {
		t.Fatalf("schedules of one seed: %d and %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
}
