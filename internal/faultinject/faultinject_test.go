package faultinject_test

import (
	"errors"
	"testing"

	"uexc/internal/core"
	"uexc/internal/faultinject"
	"uexc/internal/kernel"
)

// victimProg is a plain, unhardened store/load loop: enough retired
// instructions and TLB traffic for the injector's warmup and schedule,
// with no handlers registered, so every injected outcome is whatever
// the kernel's default policy produces.
const victimProg = `
main:
	li    t0, 30000
	la    t1, counter
loop:
	sw    t0, 0(t1)
	lw    t2, 0(t1)
	addiu t0, t0, -1
	bnez  t0, loop
	nop
	li    a0, 0
	li    v0, SYS_exit
	syscall
	nop
	.align 4
counter:
	.word 0
`

func injectedRun(t *testing.T, seed int64) *faultinject.Injector {
	t.Helper()
	m, err := core.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.Attach(m.K, seed)
	if err := m.LoadProgram(victimProg); err != nil {
		t.Fatal(err)
	}
	m.Run(2_000_000) // outcome (exit, kill, error) is seed policy, not under test
	return inj
}

// TestDeterministicReplay: the same seed against the same program must
// produce the identical event log, bit for bit.
func TestDeterministicReplay(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		a := injectedRun(t, seed)
		b := injectedRun(t, seed)
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: no events injected", seed)
		}
		if len(a.Events) != len(b.Events) {
			t.Fatalf("seed %d: %d vs %d events", seed, len(a.Events), len(b.Events))
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Errorf("seed %d event %d: %+v vs %+v", seed, i, a.Events[i], b.Events[i])
			}
		}
		if len(a.Violations) != 0 {
			t.Errorf("seed %d: invariant violations: %v", seed, a.Violations)
		}
	}
}

// TestSeedsDiverge: different seeds must produce different plans
// (otherwise the campaign's seed sweep is one run repeated).
func TestSeedsDiverge(t *testing.T) {
	a := injectedRun(t, 1)
	b := injectedRun(t, 2)
	same := len(a.Events) == len(b.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical event logs")
	}
}

// TestCheckerCatchesViolations: a clean machine passes; planted
// corruption of a checked property is reported as ErrInvariant.
func TestCheckerCatchesViolations(t *testing.T) {
	m, err := core.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	ch := faultinject.NewChecker(m.K)
	if err := ch.Check(); err != nil {
		t.Fatalf("clean machine: %v", err)
	}

	m.K.CPU.GPR[0] = 1
	if err := ch.Check(); !errors.Is(err, kernel.ErrInvariant) {
		t.Errorf("GPR[0] != 0: got %v, want ErrInvariant", err)
	}
	m.K.CPU.GPR[0] = 0

	m.K.CPU.Insts = 100
	if err := ch.Check(); err != nil {
		t.Fatalf("monotone advance rejected: %v", err)
	}
	m.K.CPU.Insts = 50
	if err := ch.Check(); !errors.Is(err, kernel.ErrInvariant) {
		t.Errorf("backwards instruction counter: got %v, want ErrInvariant", err)
	}
}

// TestDetach: hooks are removed, so no further events fire.
func TestDetach(t *testing.T) {
	m, err := core.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.Attach(m.K, 7)
	if m.K.CPU.Inject == nil || m.K.TLB.InjectMiss == nil {
		t.Fatal("Attach did not install hooks")
	}
	inj.Detach()
	if m.K.CPU.Inject != nil || m.K.TLB.InjectMiss != nil {
		t.Error("Detach left hooks installed")
	}
}
