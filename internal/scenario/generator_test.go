package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGeneratorByteDeterminism pins the generator's core guarantee: a fixed
// (family, seed) pair yields byte-identical spec JSON on every run.
func TestGeneratorByteDeterminism(t *testing.T) {
	for _, f := range AllFamilies() {
		for seed := int64(0); seed < 5; seed++ {
			a, err := Generate(f, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", f, seed, err)
			}
			b, err := Generate(f, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", f, seed, err)
			}
			ja, err := a.JSON()
			if err != nil {
				t.Fatal(err)
			}
			jb, err := b.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Errorf("%s/%d: repeated generation differs:\n%s\nvs\n%s", f, seed, ja, jb)
			}
		}
	}
}

// TestGeneratorSpecsValidAndCompile checks every family over a seed range:
// specs validate, compile without a resolver, and round-trip through JSON.
func TestGeneratorSpecsValidAndCompile(t *testing.T) {
	for _, f := range Families() {
		for seed := int64(0); seed < 10; seed++ {
			s, err := Generate(f, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", f, seed, err)
			}
			if s.Family != string(f) {
				t.Errorf("%s/%d: Family = %q", f, seed, s.Family)
			}
			c, err := s.Compile(CompileOptions{})
			if err != nil {
				t.Fatalf("%s/%d: compile: %v", f, seed, err)
			}
			if len(c.Flows) == 0 {
				t.Fatalf("%s/%d: no flows", f, seed)
			}
			data, err := s.JSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("%s/%d: reparse: %v", f, seed, err)
			}
			if _, err := back.Compile(CompileOptions{}); err != nil {
				t.Fatalf("%s/%d: reparse compile: %v", f, seed, err)
			}
			// The gym view must also lower cleanly (training consumption).
			if _, err := s.Gym(CompileOptions{}); err != nil {
				t.Fatalf("%s/%d: gym view: %v", f, seed, err)
			}
		}
	}
}

// TestGeneratorSeedsDiffer makes sure distinct seeds explore distinct
// scenarios rather than collapsing to one draw.
func TestGeneratorSeedsDiffer(t *testing.T) {
	for _, f := range AllFamilies() {
		a, _ := Generate(f, 1)
		b, _ := Generate(f, 2)
		ja, _ := a.JSON()
		jb, _ := b.JSON()
		if bytes.Equal(ja, jb) {
			t.Errorf("%s: seeds 1 and 2 generated identical specs", f)
		}
	}
}

func TestGenerateUnknownFamily(t *testing.T) {
	if _, err := Generate(Family("volcano"), 1); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestGeneratorSuite exercises the suite enumerator's family rotation.
func TestGeneratorSuite(t *testing.T) {
	g := Generator{Seed: 100}
	if _, err := g.Spec(-1); err == nil {
		t.Fatal("negative suite index accepted")
	}
	fams := Families()
	for i := 0; i < 2*len(fams); i++ {
		s, err := g.Spec(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Family != string(fams[i%len(fams)]) {
			t.Errorf("suite[%d] family = %s, want %s", i, s.Family, fams[i%len(fams)])
		}
		if s.Seed != 100+int64(i) {
			t.Errorf("suite[%d] seed = %d, want %d", i, s.Seed, 100+int64(i))
		}
	}
}

// TestGeneratorEnvFactory drives a generated environment a few steps — the
// training-stack consumption path.
func TestGeneratorEnvFactory(t *testing.T) {
	if _, err := (Generator{Families: []Family{"celular"}}).EnvFactory(); err == nil {
		t.Fatal("EnvFactory accepted a misspelled family instead of failing at setup")
	}
	factory, err := Generator{Seed: 7}.EnvFactory()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		env := factory(seed)
		for i := 0; i < 5; i++ {
			m := env.Step()
			obs := env.Observation()
			if len(obs) != env.ObsSize() {
				t.Fatalf("seed %d: obs len %d, want %d", seed, len(obs), env.ObsSize())
			}
			if m.Capacity <= 0 {
				t.Fatalf("seed %d: capacity %g", seed, m.Capacity)
			}
		}
	}
	// Same factory seed, same env behaviour.
	e1, e2 := factory(3), factory(3)
	for i := 0; i < 10; i++ {
		m1 := e1.Step()
		m2 := e2.Step()
		if m1 != m2 {
			t.Fatalf("step %d: env metrics diverge for identical seeds", i)
		}
	}
}

// TestTopoGeneratorGolden pins the spec bytes of the topology families at
// seed 1. Generate is a pure function of (family, seed), and others lean on
// the exact bytes — the benchmark's incast probe runs Generate(Incast10k,
// seed) — so adding a family, or touching a shared helper, must not move an
// existing family's draw.
func TestTopoGeneratorGolden(t *testing.T) {
	golden := map[Family]string{
		ParkingLot: "9ffd6c5edc1af54ace448011fc3d9870db65ac0e07878f530e06709a9f4edc69",
		Incast10k:  "7304dc043d7362052e0f1ac332e69b3caf4b48beb40aaf539d7916d6a510d700",
		Chain:      "6b5b7fd165e3f04ca97adf4e264abc2d5b77104bad810be7c1e43fc7f15abd49",
	}
	for _, f := range TopoFamilies() {
		s, err := Generate(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != golden[f] {
			t.Errorf("%s/1: spec JSON hashes to %s, golden %s", f, got, golden[f])
		}
	}
}

// TestTopoGeneratorSpecsValidAndCompile is the topology half of
// TestGeneratorSpecsValidAndCompile: every topology family over a seed
// range validates, lowers onto topo without a resolver, survives a JSON
// round trip and still has a single-flow gym view.
func TestTopoGeneratorSpecsValidAndCompile(t *testing.T) {
	for _, f := range TopoFamilies() {
		for seed := int64(0); seed < 6; seed++ {
			s, err := Generate(f, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", f, seed, err)
			}
			if s.Family != string(f) || !s.Topology() {
				t.Errorf("%s/%d: Family = %q, topology %v", f, seed, s.Family, s.Topology())
			}
			data, err := s.JSON()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("%s/%d: reparse: %v", f, seed, err)
			}
			c, err := back.CompileTopo(CompileOptions{})
			if err != nil {
				t.Fatalf("%s/%d: reparse compile: %v", f, seed, err)
			}
			if len(c.Flows) != len(s.Flows)+len(s.Cross) {
				t.Fatalf("%s/%d: %d compiled flows for %d flows + %d cross", f, seed, len(c.Flows), len(s.Flows), len(s.Cross))
			}
			if _, err := s.Gym(CompileOptions{}); err != nil {
				t.Fatalf("%s/%d: gym view: %v", f, seed, err)
			}
		}
	}
}

// TestChainFamilyShape holds the chain generator to what it is for: the
// benchmark's sim-topo shape, which no other family produces. Every draw
// has 3-6 links in series with exactly one capacity step and at most one
// lossy link, 4-8 reactive flows over contiguous sub-paths (the first over
// the whole chain, exactly one with a bulk budget) and at most two cross
// flows; over 40 seeds the draws reach both ends of each range, put loss on
// a middle link, and replay bit-identically on both topo engines.
func TestChainFamilyShape(t *testing.T) {
	links, flows, cross, pathLens := map[int]bool{}, map[int]bool{}, map[int]bool{}, map[int]bool{}
	midLoss, stops := false, false
	for seed := int64(0); seed < 40; seed++ {
		s, err := Generate(Chain, seed)
		if err != nil {
			t.Fatal(err)
		}
		n := len(s.Links)
		links[n], flows[len(s.Flows)], cross[len(s.Cross)] = true, true, true
		if n < 3 || n > 6 || len(s.Flows) < 4 || len(s.Flows) > 8 || len(s.Cross) > 2 {
			t.Fatalf("chain/%d: %d links, %d flows, %d cross", seed, n, len(s.Flows), len(s.Cross))
		}
		stepped, lossy := 0, 0
		for i, l := range s.Links {
			if len(l.Schedule) == 2 {
				stepped++
			}
			if l.LossRate > 0 {
				lossy++
				midLoss = midLoss || (i > 0 && i < n-1)
			}
		}
		if stepped != 1 || lossy > 1 {
			t.Errorf("chain/%d: %d stepped links, %d lossy links", seed, stepped, lossy)
		}
		bulk := 0
		for i, f := range s.Flows {
			pathLens[len(f.Path)] = true
			first := s.linkIndex(f.Path[0])
			for j, name := range f.Path {
				if s.linkIndex(name) != first+j {
					t.Errorf("chain/%d: flow %d path %v is not a contiguous run of the chain", seed, i, f.Path)
				}
			}
			if i == 0 && len(f.Path) != n {
				t.Errorf("chain/%d: the first flow crosses %d of %d links", seed, len(f.Path), n)
			}
			if f.Scheme == "fixed" {
				t.Errorf("chain/%d: flow %d is fixed-rate; the family is for reactive schemes", seed, i)
			}
			if f.App != nil && f.App.Kind == "bulk" {
				bulk++
			}
			stops = stops || f.StopSec > 0
		}
		if bulk != 1 {
			t.Errorf("chain/%d: %d bulk flows, want 1", seed, bulk)
		}
		for i, c := range s.Cross {
			if len(c.Path) != 1 {
				t.Errorf("chain/%d: cross %d path %v, want one link", seed, i, c.Path)
			}
		}
		if seed < 4 {
			if packets, err := DiffEngines(s, CompileOptions{}); err != nil || packets == 0 {
				t.Errorf("chain/%d: %d packets, %v", seed, packets, err)
			}
		}
	}
	if !links[3] || !links[6] || !flows[4] || !flows[8] || !cross[0] || !cross[2] || !pathLens[1] || !pathLens[6] || !midLoss || !stops {
		t.Errorf("40 seeds do not span the family: links %v flows %v cross %v path lengths %v, mid-path loss %v, stops %v",
			links, flows, cross, pathLens, midLoss, stops)
	}
}
