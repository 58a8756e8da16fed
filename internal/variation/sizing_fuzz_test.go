package variation

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSizingReject fuzzes the sizing walk's rejection bound. Arbitrary
// budgets, yield targets, RelErr and non-negative contribution
// prefixes — 0/1 failure indicators, or likelihood-ratio weights with
// arbitrary mantissas — run through the local run's step loop (fold.add,
// then fold.retire at each step end), with zeros after the prefix.
// Whenever the bound retires the candidate, its most favourable
// completion — zeros to the budget, stopped at the retirement point, at
// any later checkpoint or at the budget — must fold to a yield below
// the target, so the candidate could never have been selected.
func FuzzSizingReject(f *testing.F) {
	ones := func(idx ...int) []byte {
		b := make([]byte, 64)
		for _, i := range idx {
			b[i/8] |= 1 << (i % 8)
		}
		return b
	}
	// weights encodes weights in [2⁻²⁹, 2¹⁰), or 0 for no failure, the
	// way contrib decodes them.
	weights := func(ws ...float64) []byte {
		b := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			var word uint64
			if w > 0 {
				m, e := math.Frexp(w) // w = 2m·2^(e−1), 2m in [1, 2)
				word = math.Float64bits(2*m)&(1<<52-1)<<8 | uint64(e-1+30)
			}
			b = binary.LittleEndian.AppendUint64(b, word)
		}
		return b
	}
	f.Add(uint16(4096), 0.999, 0.0, false, ones(3, 40, 77, 100, 250, 300))
	f.Add(uint16(4096), 0.9999, 0.0, false, ones(5))
	f.Add(uint16(1000), 0.999, 0.2, false, ones(17))
	f.Add(uint16(1000), 0.998, 0.0, false, ones(1, 2, 3))
	f.Add(uint16(512), 0.99, 0.2, false, ones(0, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(uint16(4096), 0.999, 0.0, true, weights(0, 0.7, 0, 1.3, 2.9, 0, 0.01))
	f.Add(uint16(2048), 0.9999, 0.2, true, weights(0.125, 0, 0, 0.3))
	f.Fuzz(func(t *testing.T, samples uint16, yt, relErr float64, weighted bool, data []byte) {
		if !(yt > 0 && yt < 1) || !(relErr >= 0 && relErr <= 1) {
			t.Skip()
		}
		// Zero selects the default budget.
		o := YieldOptions{Samples: int(samples) % 8193, RelErr: relErr}.withDefaults()
		// A weight is one 8-byte word: a zero first byte is no failure;
		// otherwise that byte picks a binade in [2⁻³⁰, 2¹⁰) and the next
		// 52 bits the mantissa.
		contrib := func(i int) float64 {
			if !weighted {
				if i/8 < len(data) && data[i/8]>>(i%8)&1 == 1 {
					return 1
				}
				return 0
			}
			if 8*i+8 > len(data) || data[8*i] == 0 {
				return 0
			}
			word := binary.LittleEndian.Uint64(data[8*i:])
			mant := math.Float64frombits(0x3ff<<52 | word>>8&(1<<52-1))
			return math.Ldexp(mant, int(data[8*i])%40-30)
		}
		maxFail := rejectBound(yt, o.Samples)
		fl := fold{shifted: weighted}
		row := make([]float64, Batch)
		for base := 0; base < o.Samples; base += Batch {
			n := min(Batch, o.Samples-base)
			for k := 0; k < n; k++ {
				row[k] = contrib(base + k)
			}
			fl.add(base, n, row, 1)
			stop, rejected := fl.retire(o, base+n-1, maxFail)
			if rejected {
				checkRejected(t, o, fl, base+n, yt)
				return
			}
			if stop {
				return
			}
		}
	})
}

// checkRejected folds zeros into a retired fold from sample next to the
// budget and requires a yield below yt wherever the run could end.
func checkRejected(t *testing.T, o YieldOptions, fl fold, next int, yt float64) {
	t.Helper()
	zeros := make([]float64, Batch)
	for base := next; ; base += Batch {
		if e := fl.estimate(); !(e.Yield < yt) {
			t.Fatalf("retired at sample %d of %d, but zeros to sample %d give yield %v >= target %v",
				next, o.Samples, fl.n, e.Yield, yt)
		}
		if base >= o.Samples {
			return
		}
		n := min(Batch, o.Samples-base)
		fl.add(base, n, zeros, 1)
	}
}
