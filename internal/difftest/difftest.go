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
	"slices"
	"sort"
	"strings"

	"uexc/internal/arch"
	"uexc/internal/core"
	"uexc/internal/mem"
	"uexc/internal/progen"
	"uexc/internal/sweep"
	"uexc/internal/verdict"
)

// Budget is the legacy flat run bound, kept as the floor of the scaled
// per-program budget (BudgetFor): small generated programs converge
// orders of magnitude below it, so exhausting it is itself a failure.
const Budget = progen.BudgetFloor

// BudgetFor computes a program's instruction budget for one mode with
// the one scaled formula, progen.RunBudget, over the program's emitted
// instruction count. A budget above the floor marks the run's verdict
// BudgetScaled — growth is visible, never silent (DESIGN.md §14).
func BudgetFor(p *progen.Program, mode core.Mode) uint64 {
	return progen.RunBudget(p.EmittedInsts(mode), mode)
}

// SourceBudget is BudgetFor of the program whose source a run already
// rendered as p.Source(mode, mutate), so no run renders its source
// twice. A mutated source keeps the budget of the program it mutates.
func SourceBudget(src string, mutate bool, mode core.Mode) uint64 {
	n := progen.CountInsts(src)
	if mutate {
		n -= progen.MutationInsts
	}
	return progen.RunBudget(n, mode)
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
	Budget  uint64   // the run's bound (SourceBudget): per mode, so not compared
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
	src := p.Source(mode, mutate)
	r.Budget = SourceBudget(src, mutate, mode)

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

	if err := m.LoadProgram(src); err != nil {
		r.Err = "load: " + err.Error()
		return r
	}
	if mode == core.ModeHardware {
		m.EnableHardwareDelivery(progen.HWVector)
	}
	if err := m.Run(r.Budget); err != nil {
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

	r.Data = userWords(m, progen.DataBase, 1)
	r.Arena = userWords(m, progen.ArenaBase, progen.ArenaPages)
	r.Entries = r.Data[progen.OffCount/4]
	logged := min(r.Data[progen.OffLogLen/4], progen.LogCap)
	for i := uint32(0); i < logged; i++ {
		r.Log = append(r.Log, Entry{
			Cause: r.Data[(progen.OffLog+i*8)/4],
			BadVA: r.Data[(progen.OffLog+i*8+4)/4],
		})
	}
	return r
}

// userWords reads the given number of user pages at page-aligned va as
// words, with one page-table walk and one page lookup per page; a page
// that is unmapped or has no backing reads as zeros.
func userWords(m *core.Machine, va uint32, pages int) []uint32 {
	out := make([]uint32, pages*arch.PageSize/4)
	var page *mem.Page
	for i := range out {
		off := uint32(i) * 4
		if off%arch.PageSize == 0 {
			page = m.K.UserPage(va + off)
		}
		if page != nil {
			out[i] = page.Word(off)
		}
	}
	return out
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

// CheckProgram runs p under every mode and returns its digest: the
// equivalence violations against the Ultrix baseline (empty = the
// modes agree), the baseline's handler-policy invocation count, and
// the typed verdict. Mode errors surface as violations too: a program
// that fails anywhere cannot witness equivalence. The fuzzer passes
// caller-built programs (the SMC probe grafted onto generated seeds).
func CheckProgram(pool Machines, p *progen.Program) Shard {
	var t Shard
	runs := make([]ModeRun, len(Modes))
	for i, mode := range Modes {
		runs[i] = runMode(pool, p, mode, false)
	}
	if runs[0].Err != "" {
		t.Divergences = append(t.Divergences, fmt.Sprintf("[%s] run error: %s", runs[0].Mode, runs[0].Err))
	}
	for i := 1; i < len(runs); i++ {
		t.Divergences = append(t.Divergences, diff(&runs[0], &runs[i])...)
	}
	t.Entries = uint64(runs[0].Entries)
	classify(runs, &t)
	return t
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
// each merged shard and replays the journaled prefix on resume
// (DESIGN.md §12); a shard is a deterministic function of its seed.
type Shard struct {
	Divergences []string     `json:"divergences,omitempty"`
	Entries     uint64       `json:"entries"`
	Verdict     verdict.Kind `json:"verdict,omitempty"`
}

// ShardLine renders seed i's progress line from its digest — the one
// formatting point shared by live shards and journal replays, so both
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
// legacy floor in any mode's run is BudgetScaled.
func classify(runs []ModeRun, t *Shard) {
	switch {
	case len(t.Divergences) > 0:
		t.Verdict = verdict.EngineBug
	case slices.ContainsFunc(runs, func(r ModeRun) bool { return r.Budget > Budget }):
		t.Verdict = verdict.BudgetScaled
	default:
		t.Verdict = verdict.Clean
	}
}

// RunShard runs seed i's three-mode comparison on a pooled machine and
// returns its digest — the single shard-execution point of the Oracle
// sweep, also called directly by the tests and the benchmark.
func RunShard(pool Machines, i int) Shard {
	return CheckProgram(pool, progen.Generate(int64(i)))
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
