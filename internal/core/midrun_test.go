package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"uexc/internal/core"
	"uexc/internal/cpu"
	"uexc/internal/progen"
)

// midRunProgram is one program the mid-run fork test runs: how to load
// it onto a fresh machine, and its instruction budget.
type midRunProgram struct {
	name   string
	load   func(m *core.Machine) error
	budget uint64
}

func midRunPrograms() []midRunProgram {
	p := progen.Generate(11)
	var progs []midRunProgram
	for _, mode := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
		progs = append(progs, midRunProgram{
			name: fmt.Sprintf("progen11/%v", mode),
			load: func(m *core.Machine) error {
				if err := m.LoadProgram(p.Source(mode, false)); err != nil {
					return err
				}
				if mode == core.ModeHardware {
					m.EnableHardwareDelivery(progen.HWVector)
				}
				return nil
			},
			budget: progen.RunBudget(p.EmittedInsts(mode), mode),
		})
	}
	// Two processes, so the capture carries more than one Proc and a
	// current index that moves; the spawned one climbs the recursion
	// escalation ladder until it is killed.
	progs = append(progs, midRunProgram{
		name: "two-process",
		load: func(m *core.Machine) error {
			if err := m.LoadProgram(core.SiblingSurvivorProg); err != nil {
				return err
			}
			_, err := m.SpawnProgram(core.RecursionKillProg)
			return err
		},
		budget: 10_000_000,
	})
	// The watchpoint program keeps a watched subpage protected for most
	// of its run, so the captures see a non-empty subpage map, and which
	// stores notify depends on it.
	progs = append(progs, midRunProgram{
		name: "subpage",
		load: func(m *core.Machine) error {
			src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", "watchpoint.s"))
			if err != nil {
				return err
			}
			return m.LoadProgram(string(src))
		},
		budget: 10_000_000,
	})
	return progs
}

// start boots a machine, loads the program, and turns event tracing on.
func (p midRunProgram) start(t *testing.T) *core.Machine {
	t.Helper()
	m, err := core.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.load(m); err != nil {
		t.Fatal(err)
	}
	m.K.TraceEvents = true
	return m
}

// endDigest fingerprints a finished run: the run's error, every
// simulator counter, the console, the event trace, and each process's
// exit status and kill reason. FastHits and the JIT tallies are zeroed:
// they count host-cache hits and compiles, which a fork starts cold, so
// they are never part of a determinism fingerprint (cpu.Counters).
func endDigest(m *core.Machine, runErr error) string {
	c := m.Counters()
	c.FastHits, c.JITBlocks, c.JITExecs, c.JITGuardMisses, c.JITInvalidations = 0, 0, 0, 0, 0
	var exits []string
	for _, p := range m.K.Procs() {
		done, status := p.Exited()
		exits = append(exits, fmt.Sprintf("%d:%v/%d/%v", p.ASID(), done, status, p.KillReason()))
	}
	return fmt.Sprintf("err=%v\ncounters=%+v\nconsole=%q\nevents=%v\nexits=%v",
		runErr, c, m.K.Console(), m.K.Events, exits)
}

// TestMidRunForkMatchesStraightRun: a snapshot taken mid-run carries
// everything the rest of the run depends on, and shares nothing with
// the live machine. Each program is run straight to the end once; then,
// on fresh machines, it is stopped at about 1/4, 1/2 and 3/4 of that
// run and snapshotted. The source machine and two forks of the
// snapshot run concurrently to the end, and a third fork is taken after
// the source has finished. Every fork must start in the source's
// capture-time CPU and TLB state, and all four runs must match the
// straight run's digest: the capture has no architectural effect, and a
// fork misses nothing the source had.
func TestMidRunForkMatchesStraightRun(t *testing.T) {
	for _, p := range midRunPrograms() {
		t.Run(p.name, func(t *testing.T) {
			straight := p.start(t)
			want := endDigest(straight, straight.Run(p.budget))
			total := straight.CPU().Insts

			for q := uint64(1); q <= 3; q++ {
				at := total * q / 4
				src := p.start(t)
				var be *cpu.BudgetError
				if err := src.Run(at); !errors.As(err, &be) {
					t.Fatalf("%d/4: run to instruction %d: err = %v, want the budget stop", q, at, err)
				}
				snap := src.Snapshot()
				capCPU, capTLB, capCounters, capConsole := src.K.CPU.State, src.K.TLB.State, src.Counters(), src.K.Console()

				// finish forks the snapshot, checks the fork starts in the
				// capture-time state, and runs it to the end.
				finish := func() (string, error) {
					f, err := core.Fork(snap)
					if err != nil {
						return "", err
					}
					if f.K.CPU.State != capCPU || f.K.TLB.State != capTLB ||
						f.Counters() != capCounters || f.K.Console() != capConsole {
						return "", errors.New("fork differs from the source at the capture point")
					}
					return endDigest(f, f.Run(p.budget-at)), nil
				}

				got := make([]string, 4) // source, two concurrent forks, a late fork
				errs := make([]error, len(got))
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[0] = endDigest(src, src.Run(p.budget-at))
				}()
				for i := 1; i <= 2; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i], errs[i] = finish()
					}()
				}
				wg.Wait()
				got[3], errs[3] = finish()

				for i, g := range got {
					if errs[i] != nil {
						t.Errorf("%d/4 (instruction %d), machine %d: %v", q, at, i, errs[i])
					} else if g != want {
						t.Errorf("%d/4 (instruction %d), machine %d (0 = source, 3 = late fork): diverged from the straight run\n got: %s\nwant: %s",
							q, at, i, g, want)
					}
				}
			}
		})
	}
}
