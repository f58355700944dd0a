package ff

import (
	"prophet/internal/clock"
	"prophet/internal/tree"
)

// HeapPredictTime is PredictTimeCtx with every ordinary section stepped on
// the heap one segment at a time, whatever its shape: the reference the
// fast paths are checked against.
func HeapPredictTime(e *Emulator, root *tree.Node) clock.Cycles {
	total := root.SerialOutsideSections()
	for _, sec := range root.TopLevelSections() {
		p := e.threads()
		burden := 1.0
		if e.UseBurden {
			burden = sec.BurdenFor(p)
		}
		st := &state{}
		st.init(p, burden, e.Speeds, e.Ov, e.Sched, nil, nil)
		var d clock.Cycles
		if sec.Pipeline {
			d = emulatePipeline(st, sec, 0, p)
		} else {
			d = emulateHeap(st, sec, 0, p, false)
		}
		total += d * clock.Cycles(sec.Reps())
	}
	return total
}
