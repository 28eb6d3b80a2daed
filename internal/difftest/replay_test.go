package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"uexc/internal/core"
	"uexc/internal/cpu"
	"uexc/internal/kernel"
	"uexc/internal/progen"
	"uexc/internal/sweep"
)

// machineDigest fingerprints a finished run the way the oracle does:
// outcome, console, kernel stats, and retirement counters.
func machineDigest(m *core.Machine, runErr error) string {
	errText := ""
	if runErr != nil {
		errText = runErr.Error()
	}
	c := m.K.CPU
	return fmt.Sprintf("err=%q console=%q stats=%+v cycles=%d insts=%d writes=%d",
		errText, m.K.Console(), m.K.Stats, c.Cycles, c.Insts, c.MemWrites)
}

// TestTimeTravelExact: TimeTravel lands on exactly the state the
// original run passed through — identical to a fresh machine run
// straight to the same instruction with runMode's setup.
func TestTimeTravelExact(t *testing.T) {
	const seed = 11
	p := progen.Generate(seed)

	for _, mode := range Modes {
		tape, err := RecordProgram(p, mode, 0)
		if err != nil {
			t.Fatalf("%v: record: %v", mode, err)
		}
		target := tape.EndInsts / 2
		m, _, err := TimeTravelSeed(seed, mode, target, 500)
		if err != nil {
			t.Fatalf("%v: time travel: %v", mode, err)
		}
		if got := m.K.CPU.Insts; got != target {
			t.Fatalf("%v: paused at %d, want %d", mode, got, target)
		}

		// Ground truth: runMode's setup, run straight to target.
		ref, err := core.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.LoadProgram(p.Source(mode, false)); err != nil {
			t.Fatal(err)
		}
		if mode == core.ModeHardware {
			ref.EnableHardwareDelivery(progen.HWVector)
		}
		if target > 0 {
			if _, err := ref.K.CPU.Run(target); err != nil {
				var be *cpu.BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("%v: reference run: %v", mode, err)
				}
			}
		}
		got := fmt.Sprintf("pc=%#x gpr=%v insts=%d cycles=%d console=%q",
			m.K.CPU.PC, m.K.CPU.GPR, m.K.CPU.Insts, m.K.CPU.Cycles, m.K.Console())
		want := fmt.Sprintf("pc=%#x gpr=%v insts=%d cycles=%d console=%q",
			ref.K.CPU.PC, ref.K.CPU.GPR, ref.K.CPU.Insts, ref.K.CPU.Cycles, ref.K.Console())
		if got != want {
			t.Fatalf("%v: time travel diverged\nreplayed: %s\nstraight: %s", mode, got, want)
		}
	}
}

// booted hands out directly booted kernels — never snapshotted, never
// recycled — as the reference the pooled fork/restore lifecycle is
// held to.
type booted struct{}

func (booted) Get() (*core.Machine, error) {
	k, err := kernel.New()
	if err != nil {
		return nil, err
	}
	return &core.Machine{K: k}, nil
}

func (booted) Put(*core.Machine) {}

// forEachEngine runs f with cpu.DefaultEngine set to each tier in turn.
func forEachEngine(t *testing.T, f func(e cpu.Engine)) {
	t.Helper()
	prev := cpu.DefaultEngine
	defer func() { cpu.DefaultEngine = prev }()
	for _, e := range []cpu.Engine{cpu.EngineJIT, cpu.EngineFast, cpu.EngineInterp} {
		cpu.DefaultEngine = e
		f(e)
	}
}

// TestWarmPoolShardIdentity: every mode run on a pooled machine (the
// boot snapshot forked or restored) records exactly the state — GPRs,
// console, exception counts, handler log, data page, fault arena — of
// the same run on a directly booted kernel, under every engine. The
// SMC probe program runs first, so a stale decode surviving a restore
// would diverge at once.
func TestWarmPoolShardIdentity(t *testing.T) {
	smc := progen.Generate(11)
	smc.Extra = progen.SMCStanza
	progs := []*progen.Program{smc, progen.Generate(0), progen.Generate(1), progen.Generate(2)}
	forEachEngine(t, func(e cpu.Engine) {
		var pool core.MachinePool
		for i, p := range progs {
			for _, mode := range Modes {
				w, err := json.Marshal(runMode(&pool, p, mode, false))
				if err != nil {
					t.Fatal(err)
				}
				c, err := json.Marshal(runMode(booted{}, p, mode, false))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(w, c) {
					t.Errorf("engine %d program %d %v: pooled run diverged from booted\npooled: %s\nbooted: %s", e, i, mode, w, c)
				}
			}
		}
		if st := pool.Stats(); st.Restores == 0 || st.Gets != st.Forks+st.Restores {
			t.Errorf("engine %d: pool stats = %+v, want gets == forks + restores with restores > 0", e, st)
		}
	})
}

// TestSMCAfterForkIdentity: a program whose first act after checkout
// includes self-modifying code runs byte-identically on a machine
// forked from a post-boot snapshot and on a freshly booted one, under
// every engine — stale predecode or JIT state surviving the restore
// diverges here.
func TestSMCAfterForkIdentity(t *testing.T) {
	p := progen.Generate(11)
	p.Extra = progen.SMCStanza

	forEachEngine(t, func(e cpu.Engine) {
		src, err := core.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		snap := src.Snapshot()

		for _, mode := range Modes {
			forked, err := core.Fork(snap)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := booted{}.Get()
			if err != nil {
				t.Fatal(err)
			}
			digests := [2]string{}
			for i, m := range []*core.Machine{forked, ref} {
				if err := m.LoadProgram(p.Source(mode, false)); err != nil {
					t.Fatal(err)
				}
				if mode == core.ModeHardware {
					m.EnableHardwareDelivery(progen.HWVector)
				}
				digests[i] = machineDigest(m, m.Run(BudgetFor(p, mode)))
			}
			if digests[0] != digests[1] {
				t.Errorf("engine %d %v: SMC run diverged after fork\nforked: %s\nbooted: %s",
					e, mode, digests[0], digests[1])
			}
		}
	})
}

// TestCampaignWarmPoolIdentity: the full oracle sweep's output stream,
// at one worker and at four, is byte-identical to the shard lines of
// the same seeds checked on directly booted kernels — the serving
// layer's golden-stream guarantee, held to the reference boot.
func TestCampaignWarmPoolIdentity(t *testing.T) {
	const seeds = 6
	var golden bytes.Buffer
	for i := 0; i < seeds; i++ {
		golden.WriteString(ShardLine(i, RunShard(booted{}, i)))
	}
	for _, workers := range []int{1, 4} {
		var pool core.MachinePool
		var buf bytes.Buffer
		o := sweep.Options{Seeds: seeds, Workers: workers, Pool: &pool, Progress: &buf}
		if _, err := Oracle.Resume(context.Background(), o, nil, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), golden.Bytes()) {
			t.Errorf("workers=%d: output diverged from booted golden\ngot:\n%s\nwant:\n%s",
				workers, buf.Bytes(), golden.Bytes())
		}
		if st := pool.Stats(); st.Gets != st.Forks+st.Restores {
			t.Errorf("workers=%d: pool stats = %+v, want gets == forks + restores", workers, st)
		}
	}
}
