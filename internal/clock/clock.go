// Package clock provides the cycle clocks used by interval profiling and the
// simulated machine.
//
// The paper reads the x86 time-stamp counter (rdtsc) for high-resolution
// interval profiling (§VI-A). This reproduction offers two clocks behind one
// interface: a Virtual clock driven by the discrete-event machine (exact,
// deterministic, free of the cross-core rdtsc skew the paper works around)
// and a Host clock that converts the monotonic wall clock of the machine the
// profiler runs on into nominal cycles.
package clock

import "time"

// Cycles is a count of CPU cycles. All lengths in the program tree, all
// virtual times in the simulator, and all emulator outputs are expressed in
// Cycles.
type Cycles int64

// Clock yields a monotonically non-decreasing cycle stamp.
type Clock interface {
	// Now returns the current cycle stamp.
	Now() Cycles
}

// DefaultHz is the nominal core frequency used to convert between cycles and
// seconds (and to express DRAM traffic in MB/s, as the paper's Eq. 6/7 do).
// It approximates the 2.4 GHz Westmere parts used in the paper.
const DefaultHz = 2.4e9

// Virtual is a manually advanced clock. The zero value reads 0 cycles.
type Virtual struct {
	t Cycles
}

// Now returns the current virtual time.
func (v *Virtual) Now() Cycles { return v.t }

// Advance moves the clock forward by d cycles. Negative advances are ignored
// so a buggy caller cannot make time run backwards.
func (v *Virtual) Advance(d Cycles) {
	if d > 0 {
		v.t += d
	}
}

// Set jumps the clock to t if t is in the future; earlier stamps are ignored
// to preserve monotonicity.
func (v *Virtual) Set(t Cycles) {
	if t > v.t {
		v.t = t
	}
}

// Skewed wraps a base clock and perturbs each reading through Skew — the
// cross-core rdtsc drift the paper's tool has to survive on real hardware
// (§VI-A). internal/faults drives it with a seeded offset; the zero Skew
// is pass-through. Monotonicity is enforced: a skew that would make time
// run backwards is clamped to the previous reading, exactly as a
// monotone-filtered rdtsc would behave.
type Skewed struct {
	// Base is the underlying clock.
	Base Clock
	// Skew returns the offset (positive or negative cycles) to add to
	// the given base reading. It runs on the reading goroutine and must
	// be deterministic for reproducible runs.
	Skew func(base Cycles) Cycles

	last Cycles
}

// Now returns the skewed, monotonicity-clamped cycle stamp.
func (s *Skewed) Now() Cycles {
	t := s.Base.Now()
	if s.Skew != nil {
		t += s.Skew(t)
	}
	if t < s.last {
		t = s.last
	}
	s.last = t
	return t
}

// Host converts the Go monotonic clock into nominal cycles at Hz. It stands
// in for rdtsc: monotone, cheap, and good enough for interval profiling on a
// real machine.
type Host struct {
	hz    float64
	start time.Time
}

// NewHost returns a host clock ticking at hz cycles per second. A
// non-positive hz selects DefaultHz.
func NewHost(hz float64) *Host {
	if hz <= 0 {
		hz = DefaultHz
	}
	return &Host{hz: hz, start: time.Now()}
}

// Now returns the cycles elapsed since the clock was created.
func (h *Host) Now() Cycles {
	return Cycles(float64(time.Since(h.start)) * h.hz / float64(time.Second))
}

// Hz reports the nominal frequency of the host clock.
func (h *Host) Hz() float64 { return h.hz }

// FromSeconds converts seconds to cycles at the given frequency.
func FromSeconds(s, hz float64) Cycles {
	if hz <= 0 {
		hz = DefaultHz
	}
	return Cycles(s * hz)
}
