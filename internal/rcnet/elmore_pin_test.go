package rcnet

import "testing"

// pinLadders returns n seeded random ladders of 1–60 sections with
// section resistances in [1 Ω, 1 kΩ) and capacitances in
// [0.1 fF, 100 fF).
func pinLadders(n int) []*Ladder {
	state := uint64(0x2545f4914f6cdd1d)
	next := func() float64 { // splitmix64, mapped to [0, 1)
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	out := make([]*Ladder, n)
	for k := range out {
		sections := 1 + int(next()*60)
		lad := &Ladder{R: make([]float64, sections), C: make([]float64, sections)}
		for i := 0; i < sections; i++ {
			lad.R[i] = 1 + 999*next()
			lad.C[i] = (0.1 + 99.9*next()) * 1e-15
		}
		out[k] = lad
	}
	return out
}

// TestElmoreDelayPinned holds ElmoreDelay bit for bit on 200 seeded
// ladders. The golden engine's ladderSim takes its time step and stop
// time from the Elmore delay, so any change in its summation order
// moves every golden delay.
func TestElmoreDelayPinned(t *testing.T) {
	ladders := pinLadders(len(elmorePins))
	for i, want := range elmorePins {
		if got := ladders[i].ElmoreDelay(); got != want {
			t.Errorf("ladder %d (%d sections): Elmore %x, want %x", i, ladders[i].Sections(), got, want)
		}
	}
}

var elmorePins = [...]float64{
	0x1.c9bb08739d7c5p-26, 0x1.de07ca1de7a0dp-26, 0x1.2078a65b61261p-26,
	0x1.7d1178c26cb7p-27, 0x1.819dc55c6875ap-31, 0x1.11a5086a689d9p-28,
	0x1.1167bff446d8bp-28, 0x1.4d6b4d2e272b2p-25, 0x1.244f1aec782d8p-30,
	0x1.c5b114c0efae7p-26, 0x1.b249dbe612b44p-26, 0x1.b38469c66aap-32,
	0x1.07af8553af51p-33, 0x1.9b0440e0fee4dp-27, 0x1.0d67c6184c588p-27,
	0x1.9a9e341a9942bp-25, 0x1.02c94f8d8588p-27, 0x1.cff4c97d764d9p-26,
	0x1.e0ad612bce6b6p-26, 0x1.ca91fc1b22c74p-27, 0x1.20f682a74135cp-25,
	0x1.60531de88ebfap-28, 0x1.afd08e423dd5ap-27, 0x1.49d78e0d6cf52p-26,
	0x1.7e8a3b5e015c6p-25, 0x1.300102a3eb0cap-27, 0x1.0da67705db811p-25,
	0x1.f8a05ecf174e2p-29, 0x1.106f8c86a5985p-30, 0x1.1cb0b5de043bap-31,
	0x1.6bbf1c69bf44ap-27, 0x1.8ceabf91d8b6cp-25, 0x1.8960010abb634p-26,
	0x1.1ce2857029943p-25, 0x1.1eb425e79eap-25, 0x1.ccd400da00c4ep-26,
	0x1.d3c7c191a0c62p-26, 0x1.55924373f3b8bp-25, 0x1.505792ba13c36p-28,
	0x1.20d445c66fe2ap-25, 0x1.dc3ec3037ddep-28, 0x1.90eeeb1cff2b2p-32,
	0x1.161882f195ecbp-27, 0x1.de424266e571ap-28, 0x1.7d52b16ac6862p-28,
	0x1.1a3539777f444p-27, 0x1.4d28a3c8d43e1p-25, 0x1.c2877365f89b7p-26,
	0x1.1b23ae0f4756p-26, 0x1.e708149475c07p-30, 0x1.6cd2b6d065229p-28,
	0x1.b24180546e2fcp-30, 0x1.ae0abe7a32a1ep-27, 0x1.0bbb28d74d0e3p-25,
	0x1.d5d655f8cc328p-28, 0x1.76a442d1ba2c3p-28, 0x1.a4333bd7ba368p-25,
	0x1.0bacfaf05371ap-25, 0x1.5698990364bedp-32, 0x1.9b6e758e04c51p-26,
	0x1.4e7d27aa61cf7p-29, 0x1.e898866e30664p-28, 0x1.85bc9b740eff8p-28,
	0x1.67255e3b1bebep-29, 0x1.999675637ee62p-25, 0x1.1f8f02cf77a19p-25,
	0x1.11fa1b6a14431p-29, 0x1.9dfbd5c138542p-29, 0x1.d7fb3031d3f2ap-27,
	0x1.0087f0c62e99fp-25, 0x1.beacafb26c67ap-27, 0x1.fe0709ff26ba1p-29,
	0x1.271ddeadd03b1p-25, 0x1.47e514e931484p-27, 0x1.facc0e5b0533ap-29,
	0x1.836fbefe3d3bp-28, 0x1.4d19b56d8087cp-26, 0x1.d748e0d65754ap-29,
	0x1.502845144094fp-25, 0x1.81e913e5fc7e3p-26, 0x1.3716c70462afep-25,
	0x1.0445549383679p-27, 0x1.d05e521ffcdafp-27, 0x1.a305ecdfc395dp-29,
	0x1.d636fe5bbb25fp-34, 0x1.84d2de726e7c3p-27, 0x1.551529932419dp-26,
	0x1.263b6fd642ad5p-26, 0x1.3d2778cc67cd5p-30, 0x1.03bc06521fc9ep-25,
	0x1.248455c4dfb96p-34, 0x1.a70811a92ca13p-35, 0x1.12cd31d016e4fp-30,
	0x1.0e809a4dff7b8p-28, 0x1.3b60a9829bfccp-26, 0x1.99e562ab91ae4p-25,
	0x1.8af2401079555p-27, 0x1.43186e94d32dbp-25, 0x1.b41607f9510f5p-29,
	0x1.ec7f555f90d4ep-32, 0x1.55b8bb23fd6b7p-32, 0x1.9c2715b75df2ap-27,
	0x1.4137dcc7c39c9p-25, 0x1.a626e9f24c93bp-28, 0x1.b9e0fd44d73a8p-26,
	0x1.a576935f2418p-30, 0x1.19e61cddbf952p-26, 0x1.1451b15c855d3p-26,
	0x1.9e351eeb940ccp-28, 0x1.28c161a22bf6p-37, 0x1.26a98b5001e4dp-26,
	0x1.6671e431b8036p-28, 0x1.8f33b33bcd0e2p-26, 0x1.ca65235affbb1p-38,
	0x1.9ac9dfbfb0383p-27, 0x1.0124041475b78p-28, 0x1.a8cfddb02d4ep-28,
	0x1.96d47d0a93266p-34, 0x1.72dd02a1b9188p-31, 0x1.6a1e11da80222p-25,
	0x1.1e471ec463b8ep-25, 0x1.01aa22396126fp-26, 0x1.5fa60ba5e8c52p-32,
	0x1.23fcf9c32c97p-28, 0x1.798534b273f34p-28, 0x1.7337232cb0ff1p-27,
	0x1.be197794069eap-32, 0x1.00e6e9e08c2efp-25, 0x1.4e8706189104bp-28,
	0x1.48c0c5234770dp-28, 0x1.f181b0eaadcedp-27, 0x1.02b5efa73098cp-28,
	0x1.77b600526ced6p-29, 0x1.f993c352576c7p-26, 0x1.f61d51a75da89p-30,
	0x1.1edbcba18cap-25, 0x1.d42010ace860fp-26, 0x1.60513d12d0b59p-29,
	0x1.3127484fcf9ffp-26, 0x1.0da353c55d9ep-25, 0x1.94f0af95fc52p-28,
	0x1.5162fb4b42d6bp-30, 0x1.69e5de9574a18p-26, 0x1.b6574f7d1a2b7p-26,
	0x1.b409ccefa1676p-28, 0x1.017218d6c337ap-39, 0x1.dcc335fd6c587p-26,
	0x1.6a0c080d1b37fp-26, 0x1.21a2a26804cbp-27, 0x1.b2d810a7759c5p-29,
	0x1.d391f319831d6p-26, 0x1.135d5ae61baafp-26, 0x1.fc2548d4d3539p-26,
	0x1.5231881a56116p-25, 0x1.b354525cbe67ap-27, 0x1.426a1add8d3f3p-25,
	0x1.b4ae0f2b79529p-26, 0x1.df35d9229306bp-26, 0x1.b00b87e24ada7p-26,
	0x1.80a7e5b847b34p-25, 0x1.865124341535dp-26, 0x1.dda8741b67817p-28,
	0x1.06d41fcc3e7d8p-26, 0x1.e08bfec5b3c1ep-26, 0x1.08718499817bfp-28,
	0x1.be42641cd83dp-27, 0x1.d5bfeb62a2462p-29, 0x1.1f461b326421ep-35,
	0x1.6d38a3e5f2292p-26, 0x1.037e95cdf561dp-27, 0x1.8130e76ff83b1p-26,
	0x1.47e5b6b61b9c2p-27, 0x1.83d84423a216cp-25, 0x1.3b9facea4e272p-25,
	0x1.67feae3371cc5p-32, 0x1.a3bb3940de4e9p-26, 0x1.8e907054391abp-25,
	0x1.ae3bd533b132fp-27, 0x1.81aa7919b0da1p-37, 0x1.bc4ea65823306p-36,
	0x1.e4c01af52dc78p-31, 0x1.6f7362b890fc1p-25, 0x1.594b3b201050dp-33,
	0x1.b0403cc6399f4p-28, 0x1.d20d72538f8fdp-26, 0x1.4d7f8408341cep-29,
	0x1.5ba8b4421f83ap-25, 0x1.53cb29f17d3fap-27, 0x1.6147fc7ccac25p-25,
	0x1.96a6319fb05f8p-27, 0x1.0ab1ad786dbp-25, 0x1.0c9320b9ef487p-30,
	0x1.e24973ee81ed3p-32, 0x1.9122f6130e279p-25, 0x1.4178265318fb5p-27,
	0x1.4272a104ea214p-28, 0x1.cebc2bfbb1598p-25, 0x1.cb06b9ad504a6p-26,
	0x1.a32abef4f8b66p-34, 0x1.3633cf8225b04p-28,
}
