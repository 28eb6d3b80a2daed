// Package difftest is the cross-mode differential-testing oracle: it
// runs each internal/progen program under all three delivery modes
// (ModeUltrix, ModeFast, ModeHardware) and asserts architectural
// equivalence — the paper's central claim that fast user-level delivery
// changes the cost of an exception, never its meaning.
//
// Equivalence relation (DESIGN.md §9). Two mode runs of the same
// program are equivalent iff all of the following match:
//
//   - clean termination (exit 0) and console output;
//   - the final general register file, excluding k0/k1 (kernel
//     scratch), plus HI and LO;
//   - exception counts for the intentional causes — Mod, AdEL, AdES,
//     Bp, Ov;
//   - the handler-entry log: order, cause code, and fault address of
//     every policy invocation;
//   - the bytes of the oracle data page and the fault arena.
//
// Everything else is the documented per-mode allowlist: cycle and
// instruction counts (the quantity the paper varies), TLB refill
// counts (TLBL/TLBS; handler code paths differ, so TLB pressure
// differs), syscall counts (sigreturn is a syscall only the Unix path
// executes), delivery-path statistics (FastDeliveries vs
// UnixDeliveries), k0/k1 and all privileged/condition registers
// (CP0, XT/XC/XB), the exception-frame page, the Tera wrapper's static
// frame, and sigcontext residue below the user stack pointer.
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"uexc/internal/arch"
	"uexc/internal/core"
	"uexc/internal/progen"
	"uexc/internal/sweep"
	"uexc/internal/verdict"
)

// Budget is the legacy flat run bound, kept as the floor of the scaled
// per-program budget (BudgetFor): small generated programs converge
// orders of magnitude below it, so exhausting it is itself a failure.
const Budget = 3_000_000

// budgetBase is the fixed per-run allowance of a scaled budget — the
// launch stub, runtime prologue, and kernel overheads that do not grow
// with program size.
const budgetBase = 250_000

// budgetPerInst is the per-mode multiplier of the scaled budget: the
// worst-case cost of one emitted instruction, assuming every one of
// them faults and takes a full delivery round trip. The Unix path runs
// the most kernel instructions per fault (trap decode, sendsig copyout,
// trampoline, sigreturn copyin), the kernel fast path far fewer, and
// Tera-style hardware delivery fewer still — so the multipliers are
// ordered Ultrix > FastExc > Hardware (asserted by test).
func budgetPerInst(mode core.Mode) uint64 {
	switch mode {
	case core.ModeFast:
		return 500
	case core.ModeHardware:
		return 300
	default: // ModeUltrix
		return 1200
	}
}

// BudgetFor computes a program's instruction budget for one mode:
// instructions emitted × the mode's worst-case delivery multiplier,
// plus the fixed base, floored at the legacy flat Budget so the bound
// never shrinks for the seed corpus that already converges under it. A
// budget above the floor marks the run's verdict BudgetScaled — growth
// is visible, never silent (DESIGN.md §14).
func BudgetFor(p *progen.Program, mode core.Mode) uint64 {
	scaled := budgetBase + uint64(p.EmittedInsts(mode))*budgetPerInst(mode)
	if scaled < Budget {
		return Budget
	}
	return scaled
}

// Modes is the comparison set, Ultrix first: the Unix path is the
// semantic baseline the fast paths must reproduce.
var Modes = []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware}

// IntentionalCodes are the exception causes generated programs raise
// on purpose; their per-cause counts must match across modes.
var IntentionalCodes = []uint32{arch.ExcMod, arch.ExcAdEL, arch.ExcAdES, arch.ExcBp, arch.ExcOv}

// Entry is one handler-policy invocation as the program logged it.
type Entry struct {
	Cause uint32
	BadVA uint32
}

// ModeRun digests one program execution under one mode — exactly the
// state the equivalence relation compares.
type ModeRun struct {
	Mode    core.Mode
	Err     string // "" = clean exit 0
	Console string
	GPR     [32]uint32 // k0/k1 zeroed
	HI, LO  uint32
	Counts  map[uint32]uint64 // intentional causes only
	Entries uint32            // total policy invocations
	Log     []Entry
	Data    []uint32 // oracle data page, word granular
	Arena   []uint32 // fault arena
}

// Machines is where the oracle checks its machines out: a
// *core.MachinePool in production; the identity tests substitute
// directly booted kernels as the reference the pool is held to.
type Machines interface {
	Get() (*core.Machine, error)
	Put(*core.Machine)
}

// runMode executes program p under mode on a pooled machine. mutate
// selects the deliberately wrong handler variant (self-test only).
func runMode(pool Machines, p *progen.Program, mode core.Mode, mutate bool) (r ModeRun) {
	r.Mode = mode
	r.Counts = map[uint32]uint64{}

	var m *core.Machine
	healthy := false
	defer func() {
		if rec := recover(); rec != nil {
			r.Err = fmt.Sprintf("panic: %v", rec)
			return
		}
		if healthy {
			pool.Put(m)
		}
	}()

	m, err := pool.Get()
	if err != nil {
		r.Err = "boot: " + err.Error()
		return r
	}
	healthy = true

	if err := m.LoadProgram(p.Source(mode, mutate)); err != nil {
		r.Err = "load: " + err.Error()
		return r
	}
	if mode == core.ModeHardware {
		m.EnableHardwareDelivery(progen.HWVector)
	}
	if err := m.Run(BudgetFor(p, mode)); err != nil {
		r.Err = err.Error()
	}

	r.Console = m.K.Console()
	c := m.CPU()
	r.GPR = c.GPR
	r.GPR[arch.RegK0], r.GPR[arch.RegK1] = 0, 0
	r.HI, r.LO = c.HI, c.LO
	for _, code := range IntentionalCodes {
		r.Counts[code] = c.ExcCounts[code]
	}

	word := func(va uint32) uint32 {
		v, _ := m.K.ReadUserWord(va)
		return v
	}
	r.Entries = word(progen.DataBase + progen.OffCount)
	logged := word(progen.DataBase + progen.OffLogLen)
	if logged > progen.LogCap {
		logged = progen.LogCap
	}
	for i := uint32(0); i < logged; i++ {
		r.Log = append(r.Log, Entry{
			Cause: word(progen.DataBase + progen.OffLog + i*8),
			BadVA: word(progen.DataBase + progen.OffLog + i*8 + 4),
		})
	}
	for off := uint32(0); off < arch.PageSize; off += 4 {
		r.Data = append(r.Data, word(progen.DataBase+off))
	}
	for off := uint32(0); off < progen.ArenaPages*arch.PageSize; off += 4 {
		r.Arena = append(r.Arena, word(progen.ArenaBase+off))
	}
	return r
}

// diff lists the equivalence violations between a baseline run and
// another mode's run, capped to keep reports readable.
func diff(base, other *ModeRun) []string {
	const maxPerPair = 8
	var out []string
	add := func(format string, args ...any) {
		if len(out) < maxPerPair {
			out = append(out, fmt.Sprintf("[%s vs %s] ", other.Mode, base.Mode)+fmt.Sprintf(format, args...))
		}
	}

	if base.Err != other.Err {
		add("run error %q != %q", other.Err, base.Err)
	}
	if base.Console != other.Console {
		add("console %q != %q", other.Console, base.Console)
	}
	if base.Entries != other.Entries {
		add("policy invocations %d != %d", other.Entries, base.Entries)
	}
	if len(base.Log) != len(other.Log) {
		add("handler log length %d != %d", len(other.Log), len(base.Log))
	}
	for i := 0; i < len(base.Log) && i < len(other.Log); i++ {
		if base.Log[i] != other.Log[i] {
			add("log[%d] (cause %d badva %#x) != (cause %d badva %#x)",
				i, other.Log[i].Cause, other.Log[i].BadVA, base.Log[i].Cause, base.Log[i].BadVA)
		}
	}
	for _, code := range IntentionalCodes {
		if base.Counts[code] != other.Counts[code] {
			add("%s count %d != %d", arch.ExcName(code), other.Counts[code], base.Counts[code])
		}
	}
	for r := 0; r < 32; r++ {
		if base.GPR[r] != other.GPR[r] {
			add("$%d = %#x != %#x", r, other.GPR[r], base.GPR[r])
		}
	}
	if base.HI != other.HI || base.LO != other.LO {
		add("hi/lo %#x/%#x != %#x/%#x", other.HI, other.LO, base.HI, base.LO)
	}
	for i := range base.Data {
		if base.Data[i] != other.Data[i] {
			add("data[%#x] = %#x != %#x", i*4, other.Data[i], base.Data[i])
		}
	}
	for i := range base.Arena {
		if base.Arena[i] != other.Arena[i] {
			add("arena[%#x] = %#x != %#x", i*4, other.Arena[i], base.Arena[i])
		}
	}
	return out
}

// CheckSeed generates seed's program, runs it under every mode, and
// returns the equivalence violations against the Ultrix baseline
// (empty = the modes agree) plus the baseline's handler-policy
// invocation count. Mode errors surface as violations too: a program
// that fails anywhere cannot witness equivalence.
func CheckSeed(pool Machines, seed int64) (divergences []string, entries uint64) {
	return CheckProgram(pool, progen.Generate(seed))
}

// CheckProgram is CheckSeed for a caller-built program — the fuzzer
// uses it to graft extra stanzas (the SMC probe) onto generated seeds.
func CheckProgram(pool Machines, p *progen.Program) (divergences []string, entries uint64) {
	runs := make([]ModeRun, len(Modes))
	for i, mode := range Modes {
		runs[i] = runMode(pool, p, mode, false)
	}
	if runs[0].Err != "" {
		divergences = append(divergences, fmt.Sprintf("[%s] run error: %s", runs[0].Mode, runs[0].Err))
	}
	for i := 1; i < len(runs); i++ {
		divergences = append(divergences, diff(&runs[0], &runs[i])...)
	}
	return divergences, uint64(runs[0].Entries)
}

// Result aggregates a differential campaign.
type Result struct {
	Seeds    int
	Episodes map[string]int // generated episode kinds, for coverage
	Entries  uint64         // total handler-policy invocations (Ultrix baseline)
	// Divergences lists every equivalence violation, prefixed with its
	// seed; empty means all modes agreed on every seed.
	Divergences []string
	// Verdicts tallies the per-seed typed verdicts (DESIGN.md §14).
	Verdicts verdict.Counts
	// SelfTest records the mutation self-test verdict (always run).
	SelfTestOK   bool
	SelfTestSeed int64
}

// Err reports whether the campaign passed: nil when every seed agreed
// across modes and the self-test caught its mutation.
func (r *Result) Err() error {
	if len(r.Divergences) > 0 || !r.SelfTestOK {
		return fmt.Errorf("differential campaign failed (%d divergences, self-test ok: %v)",
			len(r.Divergences), r.SelfTestOK)
	}
	return nil
}

// Counts returns the campaign's verdict tally.
func (r *Result) Counts() verdict.Counts { return r.Verdicts }

// Summary renders the deterministic campaign report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "difftest: %d seeds x %d modes (Ultrix baseline)\n", r.Seeds, len(Modes))
	kinds := make([]string, 0, len(r.Episodes))
	for k := range r.Episodes {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	b.WriteString("episodes generated:\n")
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-16s %d\n", k, r.Episodes[k])
	}
	fmt.Fprintf(&b, "handler-policy invocations (baseline): %d\n", r.Entries)
	b.WriteString("verdicts:\n")
	for k := verdict.Kind(0); k < verdict.NumKinds; k++ {
		fmt.Fprintf(&b, "  %-16s %d\n", k, r.Verdicts[k])
	}
	if r.SelfTestOK {
		fmt.Fprintf(&b, "oracle self-test: mutation in one mode detected (seed %d)\n", r.SelfTestSeed)
	} else {
		fmt.Fprintf(&b, "ORACLE SELF-TEST FAILED: mutation in one mode NOT detected (seed %d)\n", r.SelfTestSeed)
	}
	if len(r.Divergences) > 0 {
		fmt.Fprintf(&b, "DIVERGENCES (%d):\n", len(r.Divergences))
		for _, d := range r.Divergences {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	} else {
		b.WriteString("zero cross-mode divergences\n")
	}
	return b.String()
}

// Shard is one shard: a seed's three-mode comparison digest. Fields
// are exported and JSON-tagged because the serving layer journals
// shards at checkpoint boundaries and replays them on resume
// (DESIGN.md §12); a shard is a deterministic function of its seed.
type Shard struct {
	Divergences []string     `json:"divergences,omitempty"`
	Entries     uint64       `json:"entries"`
	Verdict     verdict.Kind `json:"verdict,omitempty"`
}

// ShardLine renders seed i's progress line from its digest — the one
// formatting point shared by live shards, checkpoint replays, and the
// fleet coordinator's remote-shard merge (DESIGN.md §13), so all three
// streams are byte-identical by construction. Non-clean verdicts are
// tagged; the common (clean) line is unchanged from the pre-verdict
// format.
func ShardLine(i int, t Shard) string {
	out := "ok"
	if len(t.Divergences) > 0 {
		out = fmt.Sprintf("DIVERGED (%d)", len(t.Divergences))
	}
	if t.Verdict != verdict.Clean {
		out += fmt.Sprintf(" [%s]", t.Verdict)
	}
	return fmt.Sprintf("seed %-6d %s\n", i, out)
}

// classify assigns the shard's typed verdict (DESIGN.md §14). The
// oracle has no fault injector, so any divergence — including a mode
// run error, which diff folds into the divergence list — is an
// EngineBug by definition: the three modes must agree on every
// generated program. A clean shard whose scaled budget exceeded the
// legacy floor in any mode is BudgetScaled.
func classify(p *progen.Program, t *Shard) {
	switch {
	case len(t.Divergences) > 0:
		t.Verdict = verdict.EngineBug
	case budgetScaled(p):
		t.Verdict = verdict.BudgetScaled
	default:
		t.Verdict = verdict.Clean
	}
}

// budgetScaled reports whether any mode's scaled budget for p exceeds
// the legacy flat floor.
func budgetScaled(p *progen.Program) bool {
	for _, mode := range Modes {
		if BudgetFor(p, mode) > Budget {
			return true
		}
	}
	return false
}

// RunShard runs seed i's three-mode comparison on a pooled machine and
// returns its digest — the single shard-execution point shared by the
// Oracle sweep and the serving layer's shard-range jobs, so remote and
// local digests are byte-identical.
func RunShard(pool Machines, i int) Shard {
	var t Shard
	p := progen.Generate(int64(i))
	t.Divergences, t.Entries = CheckProgram(pool, p)
	classify(p, &t)
	return t
}

// Oracle is the differential campaign as a sweep: one shard per seed
// in [0, seeds), each a three-mode comparison of that seed's program.
var Oracle = sweep.Sweep[Shard]{
	Name:   "difftest",
	Shards: func(seeds int) int { return seeds },
	Run:    func(pool *core.MachinePool, _, i int) Shard { return RunShard(pool, i) },
	Line:   func(_, i int, t Shard) string { return ShardLine(i, t) },
	Fold:   fold,
}

// fold merges the seed digests in seed order. The mutation self-test
// runs here, on the lowest seed whose program raises at least one
// fault: it is a precondition for trusting the oracle, not a shard, so
// it re-runs on every fold — a resumed campaign included.
func fold(n int, tasks []Shard) sweep.Result {
	res := &Result{Seeds: n, Episodes: map[string]int{}}
	res.SelfTestSeed = mutationSeed()
	res.SelfTestOK = SelfTest(res.SelfTestSeed)
	for i := 0; i < n; i++ {
		for _, k := range progen.Generate(int64(i)).Episodes {
			res.Episodes[k.String()]++
		}
		res.Entries += tasks[i].Entries
		res.Verdicts.Add(tasks[i].Verdict)
		for _, d := range tasks[i].Divergences {
			res.Divergences = append(res.Divergences, fmt.Sprintf("seed %d %s", i, d))
		}
	}
	return res
}

// mutationSeed returns the lowest seed whose program contains at least
// one faulting episode — the mutated handler only misbehaves when the
// policy actually runs.
func mutationSeed() int64 {
	for seed := int64(0); ; seed++ {
		for _, k := range progen.Generate(seed).Episodes {
			if k != progen.KindCompute {
				return seed
			}
		}
	}
}

// SelfTest proves the oracle can detect a semantic divergence: the
// given seed is run with a known-wrong handler policy in ModeFast only
// (logged causes offset by 32) and the oracle must flag it. A passing
// self-test is a precondition for trusting "zero divergences".
func SelfTest(seed int64) bool {
	pool := &core.MachinePool{}
	p := progen.Generate(seed)
	base := runMode(pool, p, core.ModeUltrix, false)
	mutated := runMode(pool, p, core.ModeFast, true)
	return len(diff(&base, &mutated)) > 0
}
