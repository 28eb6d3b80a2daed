package core

// ScaleKernelCosts multiplies every modeled "C-phase" cycle charge in
// the kernel's cost table by f. The assembly-measured parts of the
// system are untouched — they are executed, not modeled — so scaling
// probes exactly the calibrated portion of the reproduction.
func ScaleKernelCosts(m *Machine, f float64) {
	c := &m.K.Costs
	scale := func(v *uint64) { *v = uint64(float64(*v) * f) }
	scale(&c.TrapEntry)
	scale(&c.Post)
	scale(&c.Recognize)
	scale(&c.Sendsig)
	scale(&c.CopyWord)
	scale(&c.Sigreturn)
	scale(&c.SyscallBase)
	scale(&c.SyscallBody)
	scale(&c.MprotectPage)
	scale(&c.DemandPage)
	scale(&c.ProtLookup)
	scale(&c.ProtAmplify)
	scale(&c.SubpageCheck)
	scale(&c.EmulLoad)
	scale(&c.EmulBranch)
	scale(&c.ResumeRegs)
}

// SensitivityPoint reports the headline comparison at one scaling of
// the calibrated cost constants.
type SensitivityPoint struct {
	Scale       float64
	FastRTMicro float64
	UltRTMicro  float64
	Speedup     float64
}

// MeasureSensitivity re-measures the simple-exception comparison with
// the kernel's calibrated C-phase charges scaled by each factor. The
// headline order-of-magnitude claim should survive any plausible
// calibration error: the fast path's cost is dominated by *executed*
// instructions, the Ultrix path's by the scaled C phases.
func MeasureSensitivity(scales []float64, n int) ([]SensitivityPoint, error) {
	var out []SensitivityPoint
	for _, f := range scales {
		scale := func(m *Machine) { ScaleKernelCosts(m, f) }
		fast, ult := simpleSpec(ModeFast, n), simpleSpec(ModeUltrix, n)
		fast.setup, ult.setup = scale, scale
		fastT, err := measure(fast)
		if err != nil {
			return nil, err
		}
		ultT, err := measure(ult)
		if err != nil {
			return nil, err
		}
		out = append(out, SensitivityPoint{
			Scale:       f,
			FastRTMicro: fastT.RoundTripMicros(),
			UltRTMicro:  ultT.RoundTripMicros(),
			Speedup:     ultT.RoundTrip / fastT.RoundTrip,
		})
	}
	return out, nil
}
