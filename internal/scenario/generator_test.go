package scenario

import (
	"bytes"
	"testing"
)

// TestGeneratorByteDeterminism pins the generator's core guarantee: a fixed
// (family, seed) pair yields byte-identical spec JSON on every run.
func TestGeneratorByteDeterminism(t *testing.T) {
	for _, f := range Families() {
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
	for _, f := range Families() {
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
