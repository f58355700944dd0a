// Package surrogate implements a learned surrogate predictor that sits
// in front of the emulators: a deterministic feature extractor over the
// program tree, the request and the target machine spec, plus a small
// pure-Go model — k-NN over normalized features with distance-weighted
// voting and gradient-boosted regression stumps as a second head,
// selected per workload by cross-validated error.
//
// The surrogate never invents answers it cannot defend: a prediction is
// served only when the cross-validated error estimate of the queried
// feature neighborhood is under a configurable bound (Config.MaxRelErr);
// everything else falls back to full emulation, whose result is fed back
// into the bounded, seeded-deterministic training store. A fraction of
// confident hits are shadow-sampled: the emulator runs anyway, the exact
// result is returned, and the surrogate-vs-emulator error is recorded in
// the obs registry — the accuracy claim stays continuously measured in
// production, not just in CI.
package surrogate

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"prophet/internal/counters"
	"prophet/internal/machine"
	"prophet/internal/tree"
)

// TreeStats is the request-independent part of a workload's feature
// vector, computed once per program tree and cached by callers. All
// counts use log1p so trees spanning many orders of magnitude normalize
// sensibly.
type TreeStats struct {
	// Shape: size, depth and fan-out of the program tree.
	LogSerialCycles float64 // log1p(total serial cycles)
	Depth           float64 // max node depth
	LogPhysNodes    float64 // log1p(stored nodes)
	LogLogicalNodes float64 // log1p(Repeat-expanded nodes)
	TopSections     float64 // top-level Sec count
	LogTasks        float64 // log1p(logical tasks under top-level Secs)
	LogMaxFanout    float64 // log1p(max logical Task count of any Sec)
	LogMeanTasks    float64 // log1p(mean logical Task count per Sec)

	// Serial/parallel balance and leaf-length distribution.
	SerialOutsideFrac float64 // serial-outside-sections cycles / total
	LockFrac          float64 // L-leaf cycles / total
	WaitFrac          float64 // W-leaf cycles / total
	LogULeaves        float64 // log1p(physical U leaves)
	LogLLeaves        float64 // log1p(physical L leaves)
	MeanLogLeafLen    float64 // mean of log1p(leaf Len)
	StdLogLeafLen     float64 // stddev of log1p(leaf Len)
	MaxLogLeafLen     float64 // max log1p(leaf Len)
	NoWaitFrac        float64 // nowait Secs / Secs

	// Burden inputs: the paper's N, D, MPI and δ from the whole-run
	// counter sample.
	LogN     float64 // log1p(retired instructions)
	LogD     float64 // log1p(LLC misses)
	MPIMilli float64 // misses per kilo-instruction
	Delta    float64 // DRAM traffic, bytes/cycle

	// Fingerprint identifies the tree structure (FNV-1a over the
	// pre-order walk); callers use it to key per-workload partitions.
	Fingerprint uint64
}

// Stats extracts TreeStats from a program tree and its whole-run counter
// sample. It is deterministic: the same tree and counters always produce
// the same stats (and Fingerprint).
func Stats(root *tree.Node, total counters.Sample) TreeStats {
	var ts TreeStats
	h := fnv.New64a()
	var buf [8]byte
	hash64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}

	totalLen := float64(root.TotalLen())
	phys, logical := root.NodeCount()

	var (
		depth            int
		secs, nowSecs    int
		uLeaves, lLeaves int
		lockLen, waitLen float64
		leafLogs         []float64
	)
	var walk func(n *tree.Node, d int, reps float64)
	walk = func(n *tree.Node, d int, reps float64) {
		if d > depth {
			depth = d
		}
		hash64(uint64(n.Kind)<<56 | uint64(n.Reps()))
		hash64(uint64(n.Len))
		// Bit 0 once flagged the retired pipeline section; it stays zero
		// so fingerprints of existing trees do not move.
		hash64(uint64(n.LockID)<<2 | b2u(n.NoWait)<<1)
		reps *= float64(n.Reps())
		switch n.Kind {
		case tree.Sec:
			secs++
			if n.NoWait {
				nowSecs++
			}
		case tree.U:
			uLeaves++
			leafLogs = append(leafLogs, math.Log1p(float64(n.Len)))
		case tree.L:
			lLeaves++
			lockLen += float64(n.Len) * reps
			leafLogs = append(leafLogs, math.Log1p(float64(n.Len)))
		case tree.W:
			waitLen += float64(n.Len) * reps
			leafLogs = append(leafLogs, math.Log1p(float64(n.Len)))
		}
		for _, c := range n.Children {
			walk(c, d+1, reps)
		}
	}
	walk(root, 0, 1)

	top := root.TopLevelSections()
	var tasks, maxTasks int
	for _, sec := range top {
		t := sec.Tasks()
		tasks += t
		if t > maxTasks {
			maxTasks = t
		}
	}

	ts.LogSerialCycles = math.Log1p(totalLen)
	ts.Depth = float64(depth)
	ts.LogPhysNodes = math.Log1p(float64(phys))
	ts.LogLogicalNodes = math.Log1p(float64(logical))
	ts.TopSections = float64(len(top))
	ts.LogTasks = math.Log1p(float64(tasks))
	ts.LogMaxFanout = math.Log1p(float64(maxTasks))
	if len(top) > 0 {
		ts.LogMeanTasks = math.Log1p(float64(tasks) / float64(len(top)))
	}
	if totalLen > 0 {
		ts.SerialOutsideFrac = float64(root.SerialOutsideSections()) / totalLen
		ts.LockFrac = lockLen / totalLen
		ts.WaitFrac = waitLen / totalLen
	}
	ts.LogULeaves = math.Log1p(float64(uLeaves))
	ts.LogLLeaves = math.Log1p(float64(lLeaves))
	ts.MeanLogLeafLen, ts.StdLogLeafLen, ts.MaxLogLeafLen = meanStdMax(leafLogs)
	if secs > 0 {
		ts.NoWaitFrac = float64(nowSecs) / float64(secs)
	}

	ts.LogN = math.Log1p(float64(total.Instructions))
	ts.LogD = math.Log1p(float64(total.LLCMisses))
	ts.MPIMilli = total.MPI() * 1000
	ts.Delta = total.TrafficBytesPerCycle()

	ts.Fingerprint = h.Sum64()
	return ts
}

// RequestFeatures is the request-dependent part of the feature vector,
// expressed as plain scalars so the package depends on no public request
// types. Method/Paradigm/SchedKind take the uint8 values of the public
// enums.
type RequestFeatures struct {
	Method      uint8
	Threads     int
	Paradigm    uint8
	SchedKind   uint8
	SchedChunk  int
	MemoryModel bool
}

// Feature-vector layout: tree block, counter block, request block,
// machine block. NumFeatures is the total dimensionality; Vector always
// returns exactly this many values, in a fixed order.
const (
	numTreeFeatures    = 18
	numCounterFeatures = 4
	numMethodOneHot    = 5
	numSchedOneHot     = 4
	numRequestFeatures = numMethodOneHot + numSchedOneHot + 5
	numMachineFeatures = 11
	// NumFeatures is the dimensionality of Vector's output.
	NumFeatures = numTreeFeatures + numCounterFeatures + numRequestFeatures + numMachineFeatures
)

// Vector assembles the full feature vector for one request: the cached
// tree stats, the request scalars, and the target machine spec (nil
// falls back to the default preset). Append order is fixed; the k-NN
// normalizer makes the heterogeneous scales comparable.
func Vector(ts *TreeStats, rf RequestFeatures, spec *machine.Spec) []float64 {
	if spec == nil {
		spec = machine.Default()
	}
	v := make([]float64, 0, NumFeatures)
	// Tree block.
	v = append(v,
		ts.LogSerialCycles, ts.Depth, ts.LogPhysNodes, ts.LogLogicalNodes,
		ts.TopSections, ts.LogTasks, ts.LogMaxFanout, ts.LogMeanTasks,
		ts.SerialOutsideFrac, ts.LockFrac, ts.WaitFrac,
		ts.LogULeaves, ts.LogLLeaves,
		ts.MeanLogLeafLen, ts.StdLogLeafLen, ts.MaxLogLeafLen,
		ts.NoWaitFrac,
		float64(ts.Fingerprint&1023), // cheap tree-identity separator within a mixed partition
	)
	// Counter block.
	v = append(v, ts.LogN, ts.LogD, ts.MPIMilli, ts.Delta)
	// Request block.
	for i := 0; i < numMethodOneHot; i++ {
		v = append(v, oneHot(int(rf.Method), i, numMethodOneHot))
	}
	for i := 0; i < numSchedOneHot; i++ {
		v = append(v, oneHot(int(rf.SchedKind), i, numSchedOneHot))
	}
	cores := spec.Cores()
	v = append(v,
		float64(rf.Threads),
		math.Log1p(float64(rf.Threads)),
		float64(rf.Threads)/float64(cores),
		math.Log1p(float64(rf.SchedChunk)),
		b2f(rf.MemoryModel),
	)
	// Machine block.
	minSpeed, maxSpeed, sumSpeed := math.Inf(1), 0.0, 0.0
	for _, g := range spec.CoreGroups {
		if g.Speed < minSpeed {
			minSpeed = g.Speed
		}
		if g.Speed > maxSpeed {
			maxSpeed = g.Speed
		}
		sumSpeed += g.Speed * float64(g.Count)
	}
	secondBW, secondFrac := 0.0, 0.0
	if d := spec.DRAM.SecondDomain; d != nil {
		secondBW = d.BandwidthBytesPerCycle
		secondFrac = float64(d.Cores) / float64(cores)
	}
	v = append(v,
		math.Log1p(float64(cores)),
		float64(len(spec.CoreGroups)),
		sumSpeed/float64(cores), // mean core speed
		maxSpeed/minSpeed,       // asymmetry ratio (1 = homogeneous)
		math.Log1p(float64(spec.LLC.SizeBytes)),
		float64(spec.LLC.Ways),
		math.Log1p(spec.DRAM.UnloadedLatency),
		math.Log1p(spec.DRAM.BandwidthBytesPerCycle+secondBW),
		spec.DRAM.Knee,
		secondFrac,
		math.Log1p(float64(spec.Quantum)),
	)
	return v
}

func oneHot(val, slot, n int) float64 {
	if val >= n {
		val = n - 1
	}
	if val == slot {
		return 1
	}
	return 0
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func meanStdMax(xs []float64) (mean, std, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	for _, x := range xs {
		mean += x
		if x > max {
			max = x
		}
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std, max
}
