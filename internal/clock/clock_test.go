package clock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualZeroValue(t *testing.T) {
	var v Virtual
	if got := v.Now(); got != 0 {
		t.Fatalf("zero Virtual.Now() = %d, want 0", got)
	}
}

func TestVirtualAdvance(t *testing.T) {
	var v Virtual
	v.Advance(100)
	v.Advance(23)
	if got := v.Now(); got != 123 {
		t.Fatalf("Now() = %d, want 123", got)
	}
}

func TestVirtualAdvanceNegativeIgnored(t *testing.T) {
	var v Virtual
	v.Advance(50)
	v.Advance(-10)
	if got := v.Now(); got != 50 {
		t.Fatalf("Now() after negative advance = %d, want 50", got)
	}
}

func TestVirtualSetMonotone(t *testing.T) {
	var v Virtual
	v.Set(200)
	v.Set(100) // must be ignored
	if got := v.Now(); got != 200 {
		t.Fatalf("Now() = %d, want 200", got)
	}
	v.Set(300)
	if got := v.Now(); got != 300 {
		t.Fatalf("Now() = %d, want 300", got)
	}
}

// Property: any sequence of Advance/Set calls keeps the clock monotone.
func TestVirtualMonotoneProperty(t *testing.T) {
	f := func(ops []int32) bool {
		var v Virtual
		prev := v.Now()
		for i, op := range ops {
			if i%2 == 0 {
				v.Advance(Cycles(op))
			} else {
				v.Set(Cycles(op))
			}
			if v.Now() < prev {
				return false
			}
			prev = v.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHostMonotone(t *testing.T) {
	h := NewHost(0)
	if h.Hz() != DefaultHz {
		t.Fatalf("Hz() = %g, want default %g", h.Hz(), DefaultHz)
	}
	a := h.Now()
	time.Sleep(2 * time.Millisecond)
	b := h.Now()
	if b <= a {
		t.Fatalf("host clock not advancing: %d then %d", a, b)
	}
	// 2ms at 2.4GHz is 4.8M cycles; allow wide slack for scheduling noise.
	if d := b - a; d < FromSeconds(0.001, DefaultHz) {
		t.Fatalf("host clock advanced only %d cycles over 2ms", d)
	}
}

// toSeconds converts a cycle count to seconds at the given frequency, the
// inverse FromSeconds is checked against.
func toSeconds(c Cycles, hz float64) float64 {
	if hz <= 0 {
		hz = DefaultHz
	}
	return float64(c) / hz
}

func TestConversionsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		s := float64(ms) / 1000
		c := FromSeconds(s, DefaultHz)
		back := toSeconds(c, DefaultHz)
		diff := back - s
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConversionsDefaultHz(t *testing.T) {
	if got := toSeconds(Cycles(DefaultHz), 0); got != 1 {
		t.Fatalf("toSeconds(DefaultHz cycles) = %g, want 1", got)
	}
	if got := FromSeconds(1, 0); got != Cycles(DefaultHz) {
		t.Fatalf("FromSeconds(1s) = %d, want %d", got, Cycles(DefaultHz))
	}
}
