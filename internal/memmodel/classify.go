package memmodel

import "prophet/internal/counters"

// This file implements Table IV of the paper: the expected-speedup
// classification based on memory behaviour. The rows are the trend of LLC
// misses per instruction from serial to parallel execution; the columns
// are the observed serial memory traffic. The lightweight tool only
// *predicts* within the middle row (Par ≅ Ser, Assumption 4); the other
// rows are reported as qualitative classes, exactly as the table does.

// MPITrend is the row of Table IV: how LLC misses per instruction change
// from serial to parallel execution.
type MPITrend uint8

// MPI trends.
const (
	// TrendGrows is "Par ≫ Ser": parallelization increases the miss
	// rate (e.g. cache thrashing between threads).
	TrendGrows MPITrend = iota
	// TrendSimilar is "Par ≅ Ser": the rate is roughly unchanged — the
	// only row the lightweight model quantifies (Assumption 4).
	TrendSimilar
	// TrendShrinks is "Par ≪ Ser": parallelization decreases the rate
	// (e.g. the working set now fits the combined caches).
	TrendShrinks
)

// String names the trend in the table's notation.
func (t MPITrend) String() string {
	switch t {
	case TrendGrows:
		return "Par >> Ser"
	case TrendSimilar:
		return "Par ~= Ser"
	case TrendShrinks:
		return "Par << Ser"
	}
	return "?"
}

// TrafficClass is the column of Table IV.
type TrafficClass uint8

// Traffic classes.
const (
	TrafficLow TrafficClass = iota
	TrafficModerate
	TrafficHeavy
)

// String names the class.
func (c TrafficClass) String() string {
	switch c {
	case TrafficLow:
		return "low"
	case TrafficModerate:
		return "moderate"
	case TrafficHeavy:
		return "heavy"
	}
	return "?"
}

// Expectation is a cell of Table IV.
type Expectation uint8

// Expected speedup classes, in the table's vocabulary.
const (
	// ExpectScalable: memory will not limit the speedup.
	ExpectScalable Expectation = iota
	// ExpectLikelyScalable: probably fine, but the growing miss rate
	// could start to hurt.
	ExpectLikelyScalable
	// ExpectSlowdown: memory contention will cost some speedup.
	ExpectSlowdown
	// ExpectSlowdownSevere: memory contention will dominate
	// ("Slowdown++" in the table).
	ExpectSlowdownSevere
	// ExpectSuperlinear: effective cache growth may push the speedup
	// past linear (the case Kismet models and this tool does not).
	ExpectSuperlinear
	// ExpectUnknown: the table leaves the cell blank.
	ExpectUnknown
)

// String names the expectation.
func (e Expectation) String() string {
	switch e {
	case ExpectScalable:
		return "scalable"
	case ExpectLikelyScalable:
		return "likely scalable"
	case ExpectSlowdown:
		return "slowdown"
	case ExpectSlowdownSevere:
		return "slowdown++"
	case ExpectSuperlinear:
		return "scalable or superlinear"
	case ExpectUnknown:
		return "-"
	}
	return "?"
}

// ClassifyTraffic maps a serial profile's traffic onto Table IV's columns
// using the model's calibrated floor: below MinTrafficMBps is low, beyond
// three times the floor is heavy.
func (m *Model) ClassifyTraffic(s counters.Sample) TrafficClass {
	d := s.TrafficMBps(m.Hz)
	switch {
	case d < m.MinTrafficMBps:
		return TrafficLow
	case d < 3*m.MinTrafficMBps:
		return TrafficModerate
	default:
		return TrafficHeavy
	}
}

// Classify returns the Table IV cell for an observed MPI trend and traffic
// class.
func Classify(trend MPITrend, traffic TrafficClass) Expectation {
	switch trend {
	case TrendGrows:
		switch traffic {
		case TrafficLow:
			return ExpectLikelyScalable
		case TrafficModerate:
			return ExpectSlowdown
		default:
			return ExpectSlowdownSevere
		}
	case TrendSimilar:
		switch traffic {
		case TrafficLow:
			return ExpectScalable
		case TrafficModerate:
			return ExpectSlowdown
		default:
			return ExpectSlowdownSevere
		}
	case TrendShrinks:
		if traffic == TrafficLow {
			return ExpectSuperlinear
		}
		return ExpectUnknown
	}
	return ExpectUnknown
}
