package variation

import "math"

// This file is the engine's fast normal sampler: the Marsaglia–Tsang
// ziggurat method over 128 layers. Box–Muller (Stream.Norm) costs a
// log, a sqrt, and a sin/cos pair per two draws; the ziggurat draw is
// one 64-bit PRNG output, a table lookup, a multiply, and a compare on
// ~98.9% of calls, with the transcendental wedge/tail corrections only
// on the rare escapes. Both samplers consume the same underlying
// uniform stream, so a (seed, index) pair still fully determines the
// draw sequence — just a different, equally deterministic sequence per
// sampler. Box–Muller stays available as the pinned legacy mode
// (SamplerBoxMuller) so historical fixtures keep a bit-exact
// reference.
//
// Layer layout of one 64-bit output u:
//
//	bits 0–6   layer index i (128 layers)
//	bit 7      sign
//	bits 11–63 53-bit magnitude (disjoint from the layer/sign bits)
//
// The tables are generated once from the canonical recurrence
// (r = 3.442619855899, v = 9.91256303526217e-3, scaled to 2^53) and
// hardcoded as exact hex-float constants, so the sampler's output is
// bit-reproducible across platforms regardless of how the local libm
// rounds exp/log at package init.

// Sampler selects the normal sampler behind the sampling kernels.
type Sampler string

const (
	// SamplerZiggurat is the default fast sampler.
	SamplerZiggurat Sampler = "ziggurat"
	// SamplerBoxMuller is the pinned legacy sampler: the exact
	// Box–Muller sequence every estimate produced before the ziggurat
	// landed. Fixtures and cross-version comparisons pin it.
	SamplerBoxMuller Sampler = "box-muller"
)

// resolveSampler maps the empty string to the default.
func resolveSampler(s Sampler) Sampler {
	if s == "" {
		return SamplerZiggurat
	}
	return s
}

// validSampler reports whether s names a known sampler (empty selects
// the default).
func validSampler(s Sampler) bool {
	switch s {
	case "", SamplerZiggurat, SamplerBoxMuller:
		return true
	}
	return false
}

// zigR is the ziggurat tail cutoff: layer 0 hands |z| > zigR to the
// exponential-rejection tail sampler.
const zigR = 3.442619855899

// NormZig returns a standard normal draw via the ziggurat method.
// It consumes Uint64/Float64 outputs of the stream (a different
// consumption pattern than Norm — the two samplers produce different,
// individually deterministic sequences from the same stream state).
func (s *Stream) NormZig() float64 {
	for {
		u := s.Uint64()
		i := u & 127
		mag := u >> 11
		x := float64(mag) * zigW[i]
		if mag < zigK[i] {
			// Fast path: strictly inside the layer below.
			if u&0x80 != 0 {
				return -x
			}
			return x
		}
		if i == 0 {
			// Tail beyond zigR: Marsaglia's exponential rejection.
			for {
				x = -math.Log(s.Float64()) / zigR
				y := -math.Log(s.Float64())
				if y+y >= x*x {
					if u&0x80 != 0 {
						return -(zigR + x)
					}
					return zigR + x
				}
			}
		}
		// Wedge: uniform vertical coordinate against the density.
		if zigF[i]+s.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			if u&0x80 != 0 {
				return -x
			}
			return x
		}
	}
}

// ZigNormsInto fills dst with standard normal draws from the ziggurat
// sampler — the batched fast path the lane kernel uses.
func (s *Stream) ZigNormsInto(dst []float64) {
	for i := range dst {
		dst[i] = s.NormZig()
	}
}

// normsInto fills dst using the resolved sampler.
func (s *Stream) normsInto(dst []float64, sampler Sampler) {
	if sampler == SamplerBoxMuller {
		s.NormsInto(dst)
		return
	}
	s.ZigNormsInto(dst)
}

var zigK = [128]uint64{
	8351102274452502, 0, 6759551952566946, 7662573469566209,
	8047126567441125, 8259536838386992, 8393983065371862, 8486621022240575,
	8554275373649064, 8605824214024737, 8646390457358828, 8679135317313481,
	8706114288268563, 8728721234883407, 8747934524364679, 8764460971287768,
	8778823859819920, 8791418834681184, 8802550552536504, 8812457397257277,
	8821328558359817, 8829316089474255, 8836543587138337, 8843112545225685,
	8849107079942570, 8854597492686141, 8859642990979876, 8864293790715872,
	8868592757779166, 8872576702609581, 8876277410359159, 8879722467550061,
	8882935930618173, 8885938870518823, 8888749819382260, 8891385139160551,
	8893859327698747, 8896185274269541, 8898374474033763, 8900437208916405,
	8902382700865922, 8904219242281779, 8905954307469687, 8907594648254903,
	8909146376306228, 8910615034262605, 8912005657384986, 8913322827158353,
	8914570718027663, 8915753138255073, 8916873565725230, 8917935179393317,
	8918940886961730, 8919893349280829, 8920795001894133, 8921648074085460,
	8922454605732770, 8923216462229077, 8923935347693141, 8924612816660687,
	8925250284419640, 8925849036129328, 8926410234843491, 8926934928539259,
	8927424056238948, 8927878453297973, 8928298855920026, 8928685904949916,
	8929040148984442, 8929362046832536, 8929651969347273, 8929910200643992,
	8930136938710699, 8930332295408728, 8930496295853339, 8930628877155236,
	8930729886494664, 8930799078489742, 8930836111809437, 8930840544969163,
	8930811831232705, 8930749312527814, 8930652212263776, 8930519626917004,
	8930350516224263, 8930143691791884, 8929897803891708, 8929611326169321,
	8929282537935327, 8928909503643700, 8928490049079407, 8928021733676853,
	8927501818265808, 8926927227386036, 8926294505116891, 8925599763122264,
	8924838619299160, 8924006125019161, 8923096678438399, 8922103920685315,
	8921020610864137, 8919838474662844, 8918548019824896, 8917138309688772,
	8915596683208440, 8913908406036188, 8912056231924694, 8910019846210726,
	8907775152445218, 8905293347731794, 8902539709494989, 8899471982132675,
	8896038199566180, 8892173697663239, 8887796938997366, 8882803555753491,
	8877057648535483, 8870378731389162, 8862521528037471, 8853143551576413,
	8841750799172912, 8827601958366751, 8809528315256632, 8785566778453576,
	8752128774404123, 8701822634880684, 8616358801204843, 8432812766515878,
}

var zigW = [128]float64{
	0x1.db4668fe7e4a4p-52, 0x1.16db47e193d2ep-55, 0x1.73949184db946p-55, 0x1.b4c8fece48e0cp-55,
	0x1.e8e576e43fb8dp-55, 0x1.0a936da5e5583p-54, 0x1.1e0ce6b59698ep-54, 0x1.2f98d6bb4f3fdp-54,
	0x1.3fabee1911cb8p-54, 0x1.4e94c08c0ba9bp-54, 0x1.5c8afdbf0215fp-54, 0x1.69b7b213f3f4fp-54,
	0x1.763a1600eec5bp-54, 0x1.822a858af0e66p-54, 0x1.8d9c6a9d35e26p-54, 0x1.989f85c753b16p-54,
	0x1.a340d1baf5b02p-54, 0x1.ad8b2506a1367p-54, 0x1.b787a7c516f26p-54, 0x1.c13e2b014e849p-54,
	0x1.cab56ac6a38bdp-54, 0x1.d3f340dda6105p-54, 0x1.dcfccc51c59d9p-54, 0x1.e5d6909f51b52p-54,
	0x1.ee848e9568258p-54, 0x1.f70a5866c8f31p-54, 0x1.ff6b21fffe304p-54, 0x1.03d4e7391c5adp-53,
	0x1.07e47d87a40edp-53, 0x1.0be58456ff4a5p-53, 0x1.0fd911b97f22ep-53, 0x1.13c024b2c7ebfp-53,
	0x1.179ba80463fe6p-53, 0x1.1b6c7492c972fp-53, 0x1.1f335374a10f2p-53, 0x1.22f0ffbaa1e4fp-53,
	0x1.26a627fb9d11ap-53, 0x1.2a536fae30e2ep-53, 0x1.2df97057e7ef6p-53, 0x1.3198ba982d90cp-53,
	0x1.3531d7146a439p-53, 0x1.38c54749b902fp-53, 0x1.3c538647ef78ep-53, 0x1.3fdd09591d2a1p-53,
	0x1.436240982ad99p-53, 0x1.46e39778de05fp-53, 0x1.4a617543306c9p-53, 0x1.4ddc3d83a5b81p-53,
	0x1.515450720f452p-53, 0x1.54ca0b4ffd346p-53, 0x1.583dc8bff3216p-53, 0x1.5bafe11654814p-53,
	0x1.5f20aaa4dfc18p-53, 0x1.62907a0176ebdp-53, 0x1.65ffa248e016bp-53, 0x1.696e755e16b82p-53,
	0x1.6cdd4426b88a3p-53, 0x1.704c5ec50cb7fp-53, 0x1.73bc14d01a2c7p-53, 0x1.772cb58a39dd5p-53,
	0x1.7a9e90168b8eep-53, 0x1.7e11f3adaeb92p-53, 0x1.81872fd21db73p-53, 0x1.84fe9484873b8p-53,
	0x1.88787278810a6p-53, 0x1.8bf51b49ef337p-53, 0x1.8f74e1b37c6b8p-53, 0x1.92f819c682bf5p-53,
	0x1.967f1924c7b06p-53, 0x1.9a0a373c73f21p-53, 0x1.9d99cd86b58b4p-53, 0x1.a12e37c983369p-53,
	0x1.a4c7d45d01a31p-53, 0x1.a867047516e4fp-53, 0x1.ac0c2c6fc6382p-53, 0x1.afb7b428fe7a1p-53,
	0x1.b36a075498d64p-53, 0x1.b72395df5b73bp-53, 0x1.bae4d457ee119p-53, 0x1.beae3c60cd0e4p-53,
	0x1.c2804d2c6b16fp-53, 0x1.c65b8c04dbac1p-53, 0x1.ca4084e091e33p-53, 0x1.ce2fcb05f8c33p-53,
	0x1.d229f9bfeefdap-53, 0x1.d62fb52580b85p-53, 0x1.da41aaf79a343p-53, 0x1.de609397e09b8p-53,
	0x1.e28d331c6723cp-53, 0x1.e6c85a849b015p-53, 0x1.eb12e91486bbcp-53, 0x1.ef6dcddc7d392p-53,
	0x1.f3da097460823p-53, 0x1.f858aff31cbfp-53, 0x1.fceaeb2ca5f17p-53, 0x1.00c8fea1720d4p-52,
	0x1.0327a1cc4cf5ep-52, 0x1.05921d1c4d769p-52, 0x1.08093fe3e40e1p-52, 0x1.0a8ded0ec371ap-52,
	0x1.0d211dd28b00fp-52, 0x1.0fc3e4d95f278p-52, 0x1.12777201834f3p-52, 0x1.153d16d45743dp-52,
	0x1.18164be0c1c39p-52, 0x1.1b04b731f6bccp-52, 0x1.1e0a342cf08f6p-52, 0x1.2128dd36bdf09p-52,
	0x1.246317a6b53cp-52, 0x1.27bba2b5dbc92p-52, 0x1.2b35aa5ebee3ep-52, 0x1.2ed4df8099571p-52,
	0x1.329d9725e32f7p-52, 0x1.3694f3a3740d9p-52, 0x1.3ac11b8e206d6p-52, 0x1.3f29848d3b416p-52,
	0x1.43d75b60bca1dp-52, 0x1.48d61806d601p-52, 0x1.4e3456b0e3a1bp-52, 0x1.54052012a04a4p-52,
	0x1.5a61edf7e8f32p-52, 0x1.616dff7c8f54ap-52, 0x1.695c2be68edc9p-52, 0x1.7279dd4ac3f9dp-52,
	0x1.7d45eb36eb842p-52, 0x1.8aa73e440ffbcp-52, 0x1.9c8e0c7c8098fp-52, 0x1.b8a7c476d2be8p-52,
}

var zigF = [128]float64{
	0x1.0000p+00, 0x1.ed5cf060d53dap-01, 0x1.df6071934c0bp-01, 0x1.d37a74ffb7e56p-01,
	0x1.c8d923f9e0683p-01, 0x1.bf19b6810e615p-01, 0x1.b6042cf903cc7p-01, 0x1.ad750b7255a29p-01,
	0x1.a55418110d2afp-01, 0x1.9d8fdfaec7bf9p-01, 0x1.961b4c1afe589p-01, 0x1.8eec3c5bbfb42p-01,
	0x1.87faa61a739f4p-01, 0x1.814005219cc7bp-01, 0x1.7ab6f9c656c21p-01, 0x1.745b04d027f29p-01,
	0x1.6e2856a006c21p-01, 0x1.681bab4ebdc24p-01, 0x1.62322fc593a65p-01, 0x1.5c696d348e88dp-01,
	0x1.56bf39249a242p-01, 0x1.5131a8efe6186p-01, 0x1.4bbf07c6c218bp-01, 0x1.4665cea500fcp-01,
	0x1.41249dc646453p-01, 0x1.3bfa374538795p-01, 0x1.36e57aa69826fp-01, 0x1.31e5612065d09p-01,
	0x1.2cf8fa78591cp-01, 0x1.281f6a5d24475p-01, 0x1.2357e62428f93p-01, 0x1.1ea1b2d9efcbep-01,
	0x1.19fc239747fb3p-01, 0x1.1566980fb8bb3p-01, 0x1.10e07b5015e59p-01, 0x1.0c6942a5bbcacp-01,
	0x1.08006ca84dde7p-01, 0x1.03a58060e6682p-01, 0x1.feb0191503b12p-02, 0x1.f62f4dd0454a9p-02,
	0x1.edc7d75b77111p-02, 0x1.e578f9f2c9375p-02, 0x1.dd4204b582987p-02, 0x1.d52250cd9b95p-02,
	0x1.cd1940ad1b149p-02, 0x1.c5263f5e989c9p-02, 0x1.bd48bfe6a41e6p-02, 0x1.b5803cb422f24p-02,
	0x1.adcc371df416dp-02, 0x1.a62c36ec664e1p-02, 0x1.9e9fc9ed3ad11p-02, 0x1.97268391186bcp-02,
	0x1.8fbffc9176151p-02, 0x1.886bd29e2262bp-02, 0x1.8129a811a7655p-02, 0x1.79f923abe1179p-02,
	0x1.72d9f0523036ap-02, 0x1.6bcbbcd4c4728p-02, 0x1.64ce3bb887d8dp-02, 0x1.5de12305426e9p-02,
	0x1.57042c17986d7p-02, 0x1.503713768fb3fp-02, 0x1.497998ac51ea1p-02, 0x1.42cb7e21e8c53p-02,
	0x1.3c2c88fdb8dd1p-02, 0x1.359c810485cb7p-02, 0x1.2f1b307ccfe9ap-02, 0x1.28a864146107ep-02,
	0x1.2243eac7e2068p-02, 0x1.1bed95cc5751fp-02, 0x1.15a5387a66034p-02, 0x1.0f6aa83b46cf7p-02,
	0x1.093dbc774f1ap-02, 0x1.031e4e85fb6a1p-02, 0x1.fa18733ed2789p-03, 0x1.ee0eb59e61862p-03,
	0x1.e21f21d12332ep-03, 0x1.d64978f7cf9d6p-03, 0x1.ca8d7f9ac2021p-03, 0x1.beeafd99d711p-03,
	0x1.b361be1eb801bp-03, 0x1.a7f18f918fb5fp-03, 0x1.9c9a43902c0f5p-03, 0x1.915baee792bf2p-03,
	0x1.8635a99016376p-03, 0x1.7b280eabfd4bcp-03, 0x1.7032bc88d676dp-03, 0x1.655594a396d57p-03,
	0x1.5a907baface5fp-03, 0x1.4fe359a138234p-03, 0x1.454e19baa0e72p-03, 0x1.3ad0aa9dd7fa4p-03,
	0x1.306afe6193144p-03, 0x1.261d0aaaebe72p-03, 0x1.1be6c8cbda96fp-03, 0x1.11c835e71b728p-03,
	0x1.07c1531a2b49bp-03, 0x1.fba44b5c4de8bp-04, 0x1.e7f56ea105fbcp-04, 0x1.d4762ca983a5ap-04,
	0x1.c126ac011775fp-04, 0x1.ae071dc7af28fp-04, 0x1.9b17be7e63eebp-04, 0x1.8858d6f54ff3p-04,
	0x1.75cabd60e5dbbp-04, 0x1.636dd69e8c212p-04, 0x1.514297b239a5cp-04, 0x1.3f4987896ad6ap-04,
	0x1.2d8341133a33bp-04, 0x1.1bf075c20a9fep-04, 0x1.0a91f09183c33p-04, 0x1.f2d13368bd127p-05,
	0x1.d0eaf63395868p-05, 0x1.af738c17a5015p-05, 0x1.8e6db483bc1bbp-05, 0x1.6ddc9dd1fe248p-05,
	0x1.4dc3fcbd99702p-05, 0x1.2e282b724adacp-05, 0x1.0f0e539c89b76p-05, 0x1.e0f951d57e236p-06,
	0x1.a4f57a25d9cbdp-06, 0x1.6a23fa9d5f276p-06, 0x1.309cee4e09981p-06, 0x1.f100847645165p-07,
	0x1.83f4bed19339ap-07, 0x1.1a9b6b3fc1937p-07, 0x1.6ba8b0ffb627ep-08, 0x1.5de9e33726f2p-09,
}
