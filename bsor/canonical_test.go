package bsor

import (
	"encoding/json"
	"errors"
	"testing"
)

// meshKeyGolden pins the canonical serialization of the simplest BSOR
// spec: defaults spelled out, fields in Spec struct order, the mesh
// breaker set enumerated. A change here is a cache-key compatibility
// break for the bsord daemon and must be deliberate.
const meshKeyGolden = `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","algorithm":"BSOR-Dijkstra","breakers":["E-first","W-first","N-first","S-first","E-last","W-last","N-last","S-last","negative-first(WS)","negative-first(WN)","negative-first(ES)","negative-first(EN)","ad-hoc-1","ad-hoc-2","ad-hoc-3"],"vcs":2}`

// TestCanonicalKeyGolden proves the property the daemon's cache relies
// on: identical specs reach the same key regardless of JSON field
// order, of whether defaults are spelled or omitted, and of the pure
// speed knobs — and the key bytes themselves are pinned.
func TestCanonicalKeyGolden(t *testing.T) {
	documents := map[string]string{
		"field order A":     `{"topo":{"kind":"mesh","width":4,"height":4},"workload":"transpose","vcs":2}`,
		"field order B":     `{"vcs":2,"workload":"transpose","topo":{"height":4,"width":4,"kind":"mesh"}}`,
		"defaults omitted":  `{"workload":"transpose","topo":{"kind":"mesh","width":4,"height":4}}`,
		"algorithm spelled": `{"workload":"transpose","algorithm":"bsor-dijkstra","topo":{"kind":"mesh","width":4,"height":4}}`,
	}
	for label, doc := range documents {
		var spec Spec
		if err := json.Unmarshal([]byte(doc), &spec); err != nil {
			t.Fatalf("%s: unmarshal: %v", label, err)
		}
		key, err := spec.CanonicalKey()
		if err != nil {
			t.Fatalf("%s: CanonicalKey: %v", label, err)
		}
		if key != meshKeyGolden {
			t.Errorf("%s: key drifted:\n got  %s\n want %s", label, key, meshKeyGolden)
		}
	}
}

// TestCanonicalResolvesDefaults checks the individual resolutions:
// algorithm casing, VCs, breaker enumeration, and sim cycle counts.
func TestCanonicalResolvesDefaults(t *testing.T) {
	spec := Spec{
		Topo: Ring(8), Workload: "rand-perm", Algorithm: "sp",
		Sim: &SimSpec{Rates: []float64{5}},
	}
	c, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Algorithm != "SP" {
		t.Errorf("algorithm = %q, want canonical SP", c.Algorithm)
	}
	if c.VCs != 2 {
		t.Errorf("vcs = %d, want default 2", c.VCs)
	}
	if len(c.Breakers) != 0 {
		t.Errorf("SP spec grew breakers %v; baselines do not explore CDGs", c.Breakers)
	}
	if c.Sim.Warmup != 20000 || c.Sim.Measure != 100000 {
		t.Errorf("sim cycles = %d/%d, want published 20000/100000", c.Sim.Warmup, c.Sim.Measure)
	}
	if spec.Sim.Warmup != 0 {
		t.Errorf("Canonical mutated the input spec's SimSpec (warmup = %d)", spec.Sim.Warmup)
	}

	// A BSOR spec on a non-mesh kind enumerates that topology's default
	// breaker set, so empty-vs-spelled breaker lists share a key.
	bare := Spec{Topo: Torus(4, 4), Workload: "shuffle"}
	spelled := Spec{Topo: Torus(4, 4), Workload: "shuffle", Breakers: DefaultBreakers(Torus(4, 4))}
	k1, err := bare.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := spelled.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("empty and spelled default breakers disagree:\n %s\n %s", k1, k2)
	}

	// Name is identity: results echo it, so it must split cache keys.
	named := Spec{Name: "a", Topo: Torus(4, 4), Workload: "shuffle"}
	k3, err := named.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("specs differing only by Name share a key; responses echoing Name would collide")
	}
}

// TestCanonicalRejectsInvalid: canonicalization is validation-first, so
// a key is only ever minted for a spec the pipeline would accept.
func TestCanonicalRejectsInvalid(t *testing.T) {
	_, err := Spec{Topo: Mesh(4, 4), Workload: "no-such-workload"}.CanonicalKey()
	var se *SpecError
	if !errors.As(err, &se) || se.Field != "workload" {
		t.Fatalf("err = %v, want *SpecError on field workload", err)
	}
}
