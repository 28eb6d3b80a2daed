package faultinject

import (
	"math/rand"

	"uexc/internal/kernel"
)

// countingSource forwards to a math/rand source and counts its draws,
// so a test can tell whether the injector touched its RNG.
type countingSource struct {
	rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.Source64.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.Source64.Uint64()
}

// Counted is an injector whose RNG draws are counted.
type Counted struct {
	*Injector
	src *countingSource
}

// AttachCounted is Attach with the RNG's draws counted; the schedule is
// the one Attach(k, seed) draws.
func AttachCounted(k *kernel.Kernel, seed int64) Counted {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	return Counted{attach(k, src), src}
}

// InjectorState is every part of an injector that Step may change.
type InjectorState struct {
	Draws         uint64
	NextAt        uint64
	Storm, Misses int
	Armed         bool
	Queue         int
	Events        int
	Exercised     [NumKinds]uint64
	Violations    int
}

// State reads the injector's mutable state.
func (c Counted) State() InjectorState {
	inj := c.Injector
	return InjectorState{
		Draws: c.src.draws, NextAt: inj.nextAt, Storm: inj.storm, Misses: inj.misses,
		Armed: inj.armed, Queue: len(inj.queue), Events: len(inj.Events),
		Exercised: inj.Exercised, Violations: len(inj.Violations),
	}
}
