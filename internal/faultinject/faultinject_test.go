package faultinject_test

import (
	"errors"
	"testing"

	"uexc/internal/arch"
	"uexc/internal/core"
	"uexc/internal/cpu"
	"uexc/internal/faultinject"
	"uexc/internal/harness"
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

// TestDetach: Attach installs the CPU hook alone; TLB.InjectMiss is
// installed exactly while forced misses are pending (checked after
// every step of a run); Detach removes both hooks at any point — right
// after Attach, and in the middle of a miss burst, after which no
// further event fires.
func TestDetach(t *testing.T) {
	m, err := core.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	first := faultinject.Attach(m.K, 7)
	if m.K.CPU.Inject == nil {
		t.Fatal("Attach did not install the inject hook")
	}
	if m.K.TLB.InjectMiss != nil {
		t.Fatal("Attach installed InjectMiss with no miss pending")
	}
	first.Detach()
	if m.K.CPU.Inject != nil || m.K.TLB.InjectMiss != nil {
		t.Fatal("Detach after Attach left hooks installed")
	}

	// Step campaign runs until one burst has been seen to end (its last
	// miss removes the hook) and a later one is pending; detach there.
	var inj faultinject.Counted
	ended, midBurst := false, false
	for seed := int64(0); seed < 64 && !midBurst; seed++ {
		if m, err = core.NewMachine(); err != nil {
			t.Fatal(err)
		}
		inj = faultinject.AttachCounted(m.K, seed)
		if err := m.LoadProgram(harness.CampaignProgram(core.ModeUltrix)); err != nil {
			t.Fatal(err)
		}
		c := m.K.CPU
		for n := 0; n < 2_000_000 && !c.Halted; n++ {
			pending := inj.State().Misses > 0
			if err := c.Step(); err != nil {
				break
			}
			now := inj.State().Misses > 0
			if installed := m.K.TLB.InjectMiss != nil; installed != now {
				t.Fatalf("seed %d inst %d: InjectMiss installed=%v with %d misses pending",
					seed, c.Insts, installed, inj.State().Misses)
			}
			ended = ended || pending && !now
			if now && ended {
				midBurst = true
				break
			}
		}
	}
	if !midBurst {
		t.Fatalf("no run reached a miss burst after another had ended (ended=%v)", ended)
	}
	inj.Detach()
	if m.K.CPU.Inject != nil || m.K.TLB.InjectMiss != nil {
		t.Fatal("Detach mid-burst left hooks installed")
	}
	events := len(inj.Events)
	m.Run(2_000_000)
	if len(inj.Events) != events || m.K.TLB.InjectMiss != nil {
		t.Errorf("detached injector still acts: %d -> %d events", events, len(inj.Events))
	}
}

// TestQuietHorizonNeverLies steps armed machines under EngineInterp
// over the campaign programs, every seed and mode, one instruction at a
// time. At every user-mode step below QuietUntil, Step must return nil
// and leave the injector exactly as it was: no RNG draw, and the same
// schedule, storm, miss burst, queue and event log. The JIT runs user
// blocks on exactly that promise.
func TestQuietHorizonNeverLies(t *testing.T) {
	const seeds = 50
	modes := []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware}
	var quiet, events int
	for seed := int64(0); seed < seeds; seed++ {
		for _, mode := range modes {
			m, err := core.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			m.K.CPU.Engine = cpu.EngineInterp
			inj := faultinject.AttachCounted(m.K, seed)
			if err := m.LoadProgram(harness.CampaignProgram(mode)); err != nil {
				t.Fatal(err)
			}
			if mode == core.ModeHardware {
				m.EnableHardwareDelivery(1 << arch.ExcMod)
			}
			c := m.K.CPU
			for n := 0; n < 400_000 && !c.Halted; n++ {
				if !c.KernelMode() && c.Insts < inj.QuietUntil(c) {
					before := inj.State()
					if f := inj.Step(c); f != nil {
						t.Fatalf("seed %d mode %s inst %d: Step raised %+v below horizon %d",
							seed, mode, c.Insts, *f, inj.QuietUntil(c))
					}
					if after := inj.State(); after != before {
						t.Fatalf("seed %d mode %s inst %d: Step below the horizon changed the injector:\n%+v\n%+v",
							seed, mode, c.Insts, before, after)
					}
					quiet++
				}
				if err := c.Step(); err != nil {
					break // a kernel panic ends the run; the campaign classifies it
				}
			}
			events += len(inj.Events)
		}
	}
	if quiet == 0 || events < seeds*len(modes) {
		t.Errorf("degenerate sweep: %d quiet steps checked, %d events", quiet, events)
	}
}
