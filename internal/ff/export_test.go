package ff

import (
	"context"

	"prophet/internal/clock"
	"prophet/internal/tree"
)

// HeapPredictTime is PredictTimeCtx with every section stepped on
// the heap one segment at a time, whatever its shape: the reference the
// fast paths are checked against.
func HeapPredictTime(e *Emulator, root *tree.Node) clock.Cycles {
	d := e.driver()
	d.Section = func(_ context.Context, sec *tree.Node, burden float64) (clock.Cycles, error) {
		p := e.threads()
		st := &state{}
		st.init(p, burden, e.Speeds, e.Ov, e.Sched, nil, nil)
		return emulateHeap(st, sec, 0, p, false), nil
	}
	t, _ := d.PredictTime(context.Background(), root)
	return t
}
