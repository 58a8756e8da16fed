package tech

import "testing"

func TestFlavorJSONForms(t *testing.T) {
	out, err := LowPower.MarshalJSON()
	if err != nil || string(out) != `"LP"` {
		t.Fatalf("marshal: %s %v", out, err)
	}
}
