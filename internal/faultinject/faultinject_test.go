package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestInactiveIsNoOp(t *testing.T) {
	if Enabled() {
		t.Fatal("registry active with no plan")
	}
	if err := Hit("anything"); err != nil {
		t.Fatalf("inactive Hit returned %v", err)
	}
	if Hits("anything") != 0 {
		t.Fatal("inactive Hits non-zero")
	}
}

func TestErrorKind(t *testing.T) {
	restore := Activate(Plan{Points: map[string]Point{
		"perm": {Kind: Error},
	}})
	defer restore()
	if !Enabled() {
		t.Fatal("plan not active")
	}
	if err := Hit("perm"); !errors.Is(err, ErrInjected) {
		t.Fatalf("error fault = %v, want ErrInjected", err)
	}
	if err := Hit("unconfigured"); err != nil {
		t.Fatalf("unconfigured point fired: %v", err)
	}
}

func TestTimesSchedule(t *testing.T) {
	defer Activate(Plan{Points: map[string]Point{
		"p": {Kind: Error, Times: 2},
	}})()
	for i := 0; i < 5; i++ {
		err := Hit("p")
		if i < 2 && err == nil {
			t.Fatalf("hit %d did not fire", i)
		}
		if i >= 2 && err != nil {
			t.Fatalf("hit %d fired after Times exhausted: %v", i, err)
		}
	}
	if Hits("p") != 5 {
		t.Fatalf("Hits = %d, want 5", Hits("p"))
	}
}

func TestAfterSchedule(t *testing.T) {
	defer Activate(Plan{Points: map[string]Point{
		"p": {Kind: Error, After: 2, Times: 1},
	}})()
	var fired []int
	for i := 0; i < 6; i++ {
		if Hit("p") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired on %v, want [2]", fired)
	}
}

func TestEverySchedule(t *testing.T) {
	defer Activate(Plan{Points: map[string]Point{
		"p": {Kind: Error, Every: 3},
	}})()
	var fired []int
	for i := 0; i < 7; i++ {
		if Hit("p") != nil {
			fired = append(fired, i)
		}
	}
	want := []int{0, 3, 6}
	if len(fired) != len(want) {
		t.Fatalf("fired on %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on %v, want %v", fired, want)
		}
	}
}

// TestProbScheduleDeterministic pins that the Prob schedule is exactly
// the Uniform hash: the same plan replays the same firing pattern.
func TestProbScheduleDeterministic(t *testing.T) {
	const seed, prob = 42, 0.3
	run := func() []bool {
		defer Activate(Plan{Seed: seed, Points: map[string]Point{
			"p": {Kind: Error, Prob: prob},
		}})()
		out := make([]bool, 50)
		for i := range out {
			out[i] = Hit("p") != nil
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at hit %d", i)
		}
		if a[i] != (Uniform(seed, "p", uint64(i)) < prob) {
			t.Fatalf("hit %d disagrees with Uniform", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("degenerate schedule: %d/%d fires", fires, len(a))
	}
}

func TestPanicKind(t *testing.T) {
	defer Activate(Plan{Points: map[string]Point{
		"p": {Kind: Panic},
	}})()
	defer func() {
		if recover() == nil {
			t.Fatal("Panic kind did not panic")
		}
	}()
	_ = Hit("p")
}

func TestDelayKind(t *testing.T) {
	defer Activate(Plan{Points: map[string]Point{
		"p": {Kind: Delay, Delay: 20 * time.Millisecond},
	}})()
	start := time.Now()
	if err := Hit("p"); err != nil {
		t.Fatalf("delay returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay slept %v, want ≥ 20ms", d)
	}
}

func TestCancelKind(t *testing.T) {
	defer Activate(Plan{Points: map[string]Point{
		"p": {Kind: Cancel},
	}})()
	if err := Hit("p"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel fault = %v, want context.Canceled", err)
	}
}

func TestRestoreReinstatesPrior(t *testing.T) {
	restoreA := Activate(Plan{Points: map[string]Point{"a": {Kind: Error}}})
	restoreB := Activate(Plan{Points: map[string]Point{"b": {Kind: Error}}})
	if Hit("a") != nil {
		t.Fatal("plan A active while B installed")
	}
	if Hit("b") == nil {
		t.Fatal("plan B not active")
	}
	restoreB()
	if Hit("a") == nil {
		t.Fatal("restore did not reinstate plan A")
	}
	restoreA()
	if Enabled() {
		t.Fatal("registry still active after final restore")
	}
}

// TestActivateCopiesPlan: mutating the caller's map after activation
// must not change the installed plan.
func TestActivateCopiesPlan(t *testing.T) {
	pts := map[string]Point{"p": {Kind: Error}}
	defer Activate(Plan{Points: pts})()
	delete(pts, "p")
	pts["q"] = Point{Kind: Error}
	if Hit("p") == nil {
		t.Fatal("deleting from the source map deactivated the point")
	}
	if Hit("q") != nil {
		t.Fatal("adding to the source map activated a point")
	}
}
