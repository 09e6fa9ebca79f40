package sim

import (
	"encoding/gob"
	"fmt"
	"io"

	"treecode/internal/points"
	"treecode/internal/vec"
)

// checkpoint is the serialized form of a simulation. Only plain data is
// stored; the treecode is rebuilt on restore (it is derived state).
type checkpoint struct {
	Version   int
	Steps     int
	Dt        float64
	Soften    float64
	Particles []points.Particle
	Vel       []vec.V3

	// Version 2 adds the hierarchical block-timestep state, so a restored
	// block-mode simulation continues bit for bit instead of paying a
	// re-seeding force evaluation: the per-particle rung assignments, the
	// cached per-particle accelerations from each particle's most recent
	// evaluation, and the substep phase within the macro step (always 0
	// today — Step only returns at macro boundaries, where every rung is
	// synchronized — but stored so a future intra-macro checkpoint remains
	// a data change, not a format change). Empty in non-block runs and in
	// version-1 documents; Load treats that as "re-seed on first step".
	Rungs      []int
	BlockAcc   []vec.V3
	BlockPhase int
}

const checkpointVersion = 2

// Save writes the simulation state (positions, masses, velocities, step
// counter, and the physical parameters) with encoding/gob. The treecode
// configuration is not stored: pass it to Load, since evaluation settings
// are a property of how you continue, not of the physical state.
func (s *Simulator) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(checkpoint{
		Version:   checkpointVersion,
		Steps:     s.Steps,
		Dt:        s.Cfg.Dt,
		Soften:    s.Cfg.Force.Soften,
		Particles: s.State.Set.Particles,
		Vel:       s.State.Vel,
		Rungs:     s.rung,
		BlockAcc:  s.blockAcc,
	})
}

// Load restores a simulation saved with Save, attaching the given force
// configuration for subsequent steps. Version-1 checkpoints (pre
// block-timestep) load with empty rung state; a block-mode continuation
// then re-seeds its rungs on the first step, exactly like a fresh run.
// The saved softening length replaces force.Force.Soften, since it is a
// physical parameter of the run. Saved rungs deeper than the
// continuation's Block.MaxRungs allows are clamped to its finest rung; a
// negative rung or a non-finite cached acceleration is an error, and New
// rejects non-finite positions, velocities, masses, Dt and softening.
func Load(r io.Reader, force Config) (*Simulator, error) {
	var c checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("sim: decoding checkpoint: %w", err)
	}
	if c.Version < 1 || c.Version > checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want 1..%d", c.Version, checkpointVersion)
	}
	cfg := force
	cfg.Dt = c.Dt
	cfg.Force.Soften = c.Soften
	sim, err := New(State{Set: &points.Set{Particles: c.Particles}, Vel: c.Vel}, cfg)
	if err != nil {
		return nil, err
	}
	sim.Steps = c.Steps
	if len(c.Rungs) == len(c.Particles) && len(c.BlockAcc) == len(c.Particles) {
		// A continuation may use fewer rungs than the saved run: clamp
		// deeper rungs to the finest one available, which only shortens
		// those particles' steps.
		top := max(cfg.Block.MaxRungs-1, 0)
		for i, r := range c.Rungs {
			if r < 0 {
				return nil, fmt.Errorf("sim: checkpoint rung %d of particle %d is negative", r, i)
			}
			c.Rungs[i] = min(r, top)
			if a := c.BlockAcc[i]; !finite(a.X, a.Y, a.Z) {
				return nil, fmt.Errorf("sim: checkpoint acceleration of particle %d is not finite", i)
			}
		}
		sim.rung = c.Rungs
		sim.blockAcc = c.BlockAcc
	}
	return sim, nil
}
