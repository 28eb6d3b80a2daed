package gcsim

import (
	"fmt"
	"testing"

	"uexc/internal/simos"
)

// fuzzConfigs books each barrier with synthetic costs whose fractions
// do not sum exactly in binary, so a change in the order or grouping
// of any clock's charges shows in its last bits.
var fuzzConfigs = []Config{
	{Barrier: BarrierSigsegv, Costs: simos.CostTable{ProtFaultRT: 2417.3, MprotectPage: 981.7, MprotectExtraPage: 41.9}},
	{Barrier: BarrierFastEager, Costs: simos.CostTable{ProtFaultRT: 397.1, MprotectPage: 1003.3, MprotectExtraPage: 37.7}},
	{Barrier: BarrierSoftware, Costs: simos.CostTable{ProtFaultRT: 111.1, MprotectPage: 77.7, MprotectExtraPage: 3.3}},
}

// FuzzLedgers: for any mutator trace, a heap booking every barrier in
// one pass reports, for each, exactly the Result the barrier alone
// reports on its own heap.
func FuzzLedgers(f *testing.F) {
	f.Fuzz(func(t *testing.T, trace []byte) {
		shared := runTrace(trace, fuzzConfigs...)
		for i, cfg := range fuzzConfigs {
			alone := fmt.Sprintf("%+v", runTrace(trace, cfg)[0])
			if got := fmt.Sprintf("%+v", shared[i]); got != alone {
				t.Fatalf("%v: shared pass\n  %s\nisolated run\n  %s", cfg.Barrier, got, alone)
			}
		}
	})
}

// runTrace decodes trace into mutator operations and runs them on a
// heap booking cfgs. The first byte sizes the nursery (1–64 cells);
// then each operation is an opcode byte followed by its operands:
//
//	0 Alloc(data, left, right)   3 AddRoot(r)
//	1 WriteRef(src, slot, dst)   4 Collect()
//	2 ReadRef(src, slot)         5 CollectFull()
//
// A reference operand byte b picks nil for 0, else the (b-1)th cell
// the trace has allocated, modulo their number; a store or load
// through nil is skipped. Missing bytes read as 0.
func runTrace(trace []byte, cfgs ...Config) []Result {
	next := func() byte {
		if len(trace) == 0 {
			return 0
		}
		b := trace[0]
		trace = trace[1:]
		return b
	}
	h := New(1+int(next()%64), cfgs...)
	var held []Ref
	ref := func() Ref {
		b := next()
		if b == 0 || len(held) == 0 {
			return 0
		}
		return held[int(b-1)%len(held)]
	}
	for len(trace) > 0 {
		switch next() % 6 {
		case 0:
			data := uint32(next())
			left := ref()
			held = append(held, h.Alloc(data, left, ref()))
		case 1:
			if src := ref(); src != 0 {
				slot := int(next() & 1)
				h.WriteRef(src, slot, ref())
			}
		case 2:
			if src := ref(); src != 0 {
				h.ReadRef(src, int(next()&1))
			}
		case 3:
			h.AddRoot(ref())
		case 4:
			h.Collect()
		case 5:
			h.CollectFull()
		}
	}
	return h.Results()
}
