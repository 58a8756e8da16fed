package noc

import "testing"

func miniSpec() *Spec {
	return &Spec{
		Name:      "mini",
		DataWidth: 128,
		Cores: []Core{
			{Name: "a", X: 0, Y: 0},
			{Name: "b", X: 2e-3, Y: 0},
			{Name: "c", X: 0, Y: 2e-3},
		},
		Flows: []Flow{
			{Src: "a", Dst: "b", Bandwidth: 2e9},
			{Src: "a", Dst: "c", Bandwidth: 1e9},
			{Src: "b", Dst: "c", Bandwidth: 3e9},
		},
	}
}

func TestSpecValidateGood(t *testing.T) {
	if err := miniSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero width", func(s *Spec) { s.DataWidth = 0 }},
		{"no cores", func(s *Spec) { s.Cores = nil }},
		{"no flows", func(s *Spec) { s.Flows = nil }},
		{"dup core", func(s *Spec) { s.Cores = append(s.Cores, Core{Name: "a"}) }},
		{"unnamed core", func(s *Spec) { s.Cores[0].Name = "" }},
		{"unknown src", func(s *Spec) { s.Flows[0].Src = "zz" }},
		{"unknown dst", func(s *Spec) { s.Flows[0].Dst = "zz" }},
		{"self loop", func(s *Spec) { s.Flows[0].Dst = s.Flows[0].Src }},
		{"zero bandwidth", func(s *Spec) { s.Flows[0].Bandwidth = 0 }},
	}
	for _, c := range cases {
		s := miniSpec()
		c.mut(s)
		if s.Validate() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSpecHelpers(t *testing.T) {
	s := miniSpec()
	if _, err := s.Core("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Core("zz"); err == nil {
		t.Fatal("unknown core found")
	}
}

func TestBuiltinTestCases(t *testing.T) {
	vproc := VPROC()
	if err := vproc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(vproc.Cores) != 42 {
		t.Fatalf("VPROC has %d cores, want 42", len(vproc.Cores))
	}
	if vproc.DataWidth != 128 {
		t.Fatal("VPROC data width")
	}
	dvopd := DVOPD()
	if err := dvopd.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(dvopd.Cores) != 26 {
		t.Fatalf("DVOPD has %d cores, want 26", len(dvopd.Cores))
	}
	if dvopd.DataWidth != 128 {
		t.Fatal("DVOPD data width")
	}
	// DVOPD carries two mirrored VOPD flow sets plus cross traffic.
	if len(dvopd.Flows) != 2*len(vopdBandwidths)+4 {
		t.Fatalf("DVOPD has %d flows", len(dvopd.Flows))
	}
	if len(TestCases()) != 2 {
		t.Fatal("TestCases")
	}
	if _, err := SpecByName("VPROC"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("unknown test case accepted")
	}
}
