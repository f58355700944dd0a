package memmodel

import (
	"testing"

	"prophet/internal/clock"
	"prophet/internal/counters"
)

// TestTableIVClassification walks every cell of Table IV.
func TestTableIVClassification(t *testing.T) {
	cells := []struct {
		trend   MPITrend
		traffic TrafficClass
		want    Expectation
	}{
		{TrendGrows, TrafficLow, ExpectLikelyScalable},
		{TrendGrows, TrafficModerate, ExpectSlowdown},
		{TrendGrows, TrafficHeavy, ExpectSlowdownSevere},
		{TrendSimilar, TrafficLow, ExpectScalable},
		{TrendSimilar, TrafficModerate, ExpectSlowdown},
		{TrendSimilar, TrafficHeavy, ExpectSlowdownSevere},
		{TrendShrinks, TrafficLow, ExpectSuperlinear},
		{TrendShrinks, TrafficModerate, ExpectUnknown},
		{TrendShrinks, TrafficHeavy, ExpectUnknown},
	}
	for _, c := range cells {
		if got := Classify(c.trend, c.traffic); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.trend, c.traffic, got, c.want)
		}
	}
}

func TestClassifyTrafficThresholds(t *testing.T) {
	m := PaperModel() // floor 2000 MB/s
	mk := func(trafficMBps float64) counters.Sample {
		// traffic = D*64*hz/(T*1e6); pick T = hz cycles (1s) so
		// D = traffic*1e6/64.
		return counters.Sample{
			Instructions: 1 << 40,
			Cycles:       clock.Cycles(m.Hz),
			LLCMisses:    int64(trafficMBps * 1e6 / 64),
		}
	}
	if got := m.ClassifyTraffic(mk(500)); got != TrafficLow {
		t.Errorf("500 MB/s -> %v, want low", got)
	}
	if got := m.ClassifyTraffic(mk(3000)); got != TrafficModerate {
		t.Errorf("3000 MB/s -> %v, want moderate", got)
	}
	if got := m.ClassifyTraffic(mk(9000)); got != TrafficHeavy {
		t.Errorf("9000 MB/s -> %v, want heavy", got)
	}
}

// TestClassifySampleUsesSimilarRow classifies serial-profile samples under
// the tool's operating assumption (Assumption 4: the MPI trend is
// "similar"), the row of Table IV the paper's predictions live in.
func TestClassifySampleUsesSimilarRow(t *testing.T) {
	m := PaperModel()
	low := counters.Sample{Instructions: 1e9, Cycles: 1e9, LLCMisses: 10}
	if got := Classify(TrendSimilar, m.ClassifyTraffic(low)); got != ExpectScalable {
		t.Errorf("low-traffic sample -> %v, want scalable", got)
	}
	hot := heavyTrafficSample()
	if got := Classify(TrendSimilar, m.ClassifyTraffic(hot)); got == ExpectScalable {
		t.Errorf("heavy sample classified scalable")
	}
}

func TestClassificationStrings(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []string{
		TrendGrows.String(), TrendSimilar.String(), TrendShrinks.String(),
		TrafficLow.String(), TrafficModerate.String(), TrafficHeavy.String(),
		ExpectScalable.String(), ExpectLikelyScalable.String(), ExpectSlowdown.String(),
		ExpectSlowdownSevere.String(), ExpectSuperlinear.String(), ExpectUnknown.String(),
	} {
		if s == "?" || s == "" {
			t.Fatalf("unnamed enum value")
		}
		names[s] = true
	}
	if len(names) != 12 {
		t.Fatalf("duplicate names: %v", names)
	}
}
