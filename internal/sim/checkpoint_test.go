package sim

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"treecode/internal/core"
	"treecode/internal/points"
	"treecode/internal/vec"
)

func TestCheckpointRoundTrip(t *testing.T) {
	set, _ := points.Generate(points.Plummer, 200, 1)
	// RebuildEvery pins bitwise continuation: a restored simulator has no
	// persistent engine to refit, so under RebuildAuto the original (which
	// refits) and the restored (which builds fresh) would legitimately
	// differ by summation-order ulps while agreeing to treecode accuracy.
	cfg := Config{Dt: 1e-3, Force: core.Config{Degree: 4, Soften: 0.01}, Rebuild: RebuildEvery}
	s, err := New(State{Set: set, Vel: make([]vec.V3, set.N())}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps != 3 {
		t.Fatalf("steps = %d", restored.Steps)
	}
	if restored.Cfg.Dt != 1e-3 || restored.Cfg.Force.Soften != 0.01 {
		t.Fatal("physical parameters lost")
	}
	// Bit-identical state.
	for i := range s.State.Set.Particles {
		if s.State.Set.Particles[i] != restored.State.Set.Particles[i] {
			t.Fatalf("particle %d differs", i)
		}
		if s.State.Vel[i] != restored.State.Vel[i] {
			t.Fatalf("velocity %d differs", i)
		}
	}
	// And the continuation is bit-identical too.
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := restored.Run(2); err != nil {
		t.Fatal(err)
	}
	for i := range s.State.Set.Particles {
		if s.State.Set.Particles[i].Pos != restored.State.Set.Particles[i].Pos {
			t.Fatalf("continuation diverged at particle %d", i)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage"), Config{}); err == nil {
		t.Error("garbage should fail to load")
	}
	// Wrong version.
	var buf bytes.Buffer
	set, _ := points.Generate(points.Uniform, 5, 2)
	s, _ := New(State{Set: set, Vel: make([]vec.V3, 5)}, Config{Dt: 0.1})
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version by re-encoding through the struct directly is
	// awkward with gob; instead check that truncated data fails.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc), Config{}); err == nil {
		t.Error("truncated checkpoint should fail")
	}
}

// TestLoadFewerRungs: a block checkpoint saved with MaxRungs 6 continues
// under MaxRungs 2 with the saved rungs clamped to the finest available
// one, instead of indexing past the smaller rung table on the first step.
func TestLoadFewerRungs(t *testing.T) {
	set, err := points.Generate(points.Plummer, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Dt:    0.04,
		Force: core.Config{Method: core.Adaptive, Degree: 3, Soften: 0.01},
		Block: BlockConfig{MaxRungs: 6, Eta: 0.05},
	}
	s, err := New(State{Set: set, Vel: make([]vec.V3, set.N())}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	deep := 0
	for _, r := range s.Rungs() {
		deep = max(deep, r)
	}
	if deep < 2 {
		t.Fatalf("deepest saved rung %d; the reproduction needs one past MaxRungs-1 = 1", deep)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg.Block.MaxRungs = 2
	restored, err := Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range restored.Rungs() {
		if r < 0 || r > 1 {
			t.Fatalf("restored rung %d of particle %d outside [0,1]", r, i)
		}
	}
	if err := restored.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadNegativeRung: a checkpoint carrying a negative rung is corrupt
// and fails to load.
func TestLoadNegativeRung(t *testing.T) {
	set, err := points.Generate(points.Uniform, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	rungs := make([]int, set.N())
	rungs[3] = -1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpoint{
		Version: checkpointVersion, Dt: 0.1, Particles: set.Particles,
		Vel: make([]vec.V3, set.N()), Rungs: rungs, BlockAcc: make([]vec.V3, set.N()),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, Config{Block: BlockConfig{MaxRungs: 3}}); err == nil {
		t.Fatal("negative rung loaded")
	}
}

// FuzzLoad: Load never panics on a hostile document and never returns a
// simulator holding non-finite state or a rung outside the continuing
// configuration. The corpus is seeded with a version-1 document, a
// version-2 block document, and the MaxRungs 6 document TestLoadFewerRungs
// continues at MaxRungs 2 (every input loads at MaxRungs 2).
func FuzzLoad(f *testing.F) {
	set, err := points.Generate(points.Plummer, 40, 3)
	if err != nil {
		f.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(checkpoint{
		Version: 1, Steps: 2, Dt: 0.01, Soften: 0.01,
		Particles: set.Particles, Vel: make([]vec.V3, set.N()),
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	for _, rungs := range []int{2, 6} {
		s, err := New(State{Set: set.Clone(), Vel: make([]vec.V3, set.N())}, Config{
			Dt:    0.04,
			Force: core.Config{Method: core.Adaptive, Degree: 3, Soften: 0.01},
			Block: BlockConfig{MaxRungs: rungs, Eta: 0.05},
		})
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Run(1); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	const maxRungs = 2
	cfg := Config{Force: core.Config{Degree: 3}, Block: BlockConfig{MaxRungs: maxRungs}}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Load(bytes.NewReader(doc), cfg)
		if err != nil {
			return
		}
		if !finite(s.Cfg.Dt, s.Cfg.Force.Soften) || !(s.Cfg.Dt > 0) || s.Cfg.Force.Soften < 0 {
			t.Fatalf("loaded dt %v, soften %v", s.Cfg.Dt, s.Cfg.Force.Soften)
		}
		for i, p := range s.State.Set.Particles {
			v := s.State.Vel[i]
			if !finite(p.Pos.X, p.Pos.Y, p.Pos.Z, p.Charge, v.X, v.Y, v.Z) {
				t.Fatalf("particle %d loaded non-finite: %+v, velocity %v", i, p, v)
			}
		}
		for i, a := range s.blockAcc {
			if !finite(a.X, a.Y, a.Z) {
				t.Fatalf("cached acceleration %d loaded non-finite: %v", i, a)
			}
		}
		for i, r := range s.rung {
			if r < 0 || r >= maxRungs {
				t.Fatalf("rung %d of particle %d outside [0,%d)", r, i, maxRungs)
			}
		}
	})
}
