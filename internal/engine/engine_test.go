package engine_test

import (
	"math"
	"testing"

	"treecode/internal/core"
	"treecode/internal/engine"
	"treecode/internal/fmm"
	"treecode/internal/points"
	"treecode/internal/vec"
)

// evaluator is the lifecycle surface both evaluators get from the engine,
// plus their potential evaluation.
type evaluator interface {
	Update(pos []vec.V3) (engine.RebuildKind, error)
	SetCharges(q []float64) error
}

type builder struct {
	name string
	new  func(*points.Set) (evaluator, func() []float64, error)
}

var builders = []builder{
	{"core", func(s *points.Set) (evaluator, func() []float64, error) {
		e, err := core.New(s, core.Config{Method: core.Adaptive, Degree: 3})
		if err != nil {
			return nil, nil, err
		}
		return e, func() []float64 { phi, _ := e.Potentials(); return phi }, nil
	}},
	{"fmm", func(s *points.Set) (evaluator, func() []float64, error) {
		e, err := fmm.New(s, fmm.Config{Method: core.Adaptive, Degree: 3})
		if err != nil {
			return nil, nil, err
		}
		return e, func() []float64 { phi, _ := e.Potentials(); return phi }, nil
	}},
}

// TestRejectsNonFiniteInput: a NaN or infinite position or charge is an
// error at construction, at Update and at SetCharges, for the treecode and
// the FMM alike — never a silent all-NaN result. A rejected Update or
// SetCharges leaves the evaluator as it was.
func TestRejectsNonFiniteInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		pos  func(p *vec.V3) // corrupts one position
		q    float64         // replaces one charge when non-zero
	}{
		{name: "NaN x", pos: func(p *vec.V3) { p.X = nan }},
		{name: "-Inf z", pos: func(p *vec.V3) { p.Z = -inf }},
		{name: "+Inf charge", q: inf},
		{name: "NaN charge", q: nan},
	}
	for _, b := range builders {
		for _, tc := range cases {
			set, err := points.Generate(points.Uniform, 200, 1)
			if err != nil {
				t.Fatal(err)
			}
			e, phi, err := b.new(set)
			if err != nil {
				t.Fatal(err)
			}
			want := phi()

			bad := &points.Set{Particles: append([]points.Particle(nil), set.Particles...)}
			pos := make([]vec.V3, set.N())
			q := make([]float64, set.N())
			for i, p := range set.Particles {
				pos[i], q[i] = p.Pos, p.Charge
			}
			if tc.pos != nil {
				tc.pos(&bad.Particles[17].Pos)
				tc.pos(&pos[17])
			} else {
				bad.Particles[17].Charge = tc.q
				q[17] = tc.q
			}

			if _, _, err := b.new(bad); err == nil {
				t.Errorf("%s/%s: New accepted the input", b.name, tc.name)
			}
			if tc.pos != nil {
				if _, err := e.Update(pos); err == nil {
					t.Errorf("%s/%s: Update accepted the input", b.name, tc.name)
				}
			} else if err := e.SetCharges(q); err == nil {
				t.Errorf("%s/%s: SetCharges accepted the input", b.name, tc.name)
			}
			got := phi()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s/%s: rejected call changed phi[%d]: %v -> %v", b.name, tc.name, i, want[i], got[i])
				}
			}
		}
	}
}
