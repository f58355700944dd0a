package prophet

import (
	"context"
	"errors"
	"fmt"

	"prophet/internal/surrogate"
	"prophet/internal/sweep"
)

// Surrogate is the learned surrogate predictor (internal/surrogate): a
// k-NN / boosted-stumps model over deterministic request features that
// answers hot-tier predictions in microseconds when its cross-validated
// confidence clears the configured bound, and falls back to full
// emulation — feeding the exact result back as training data —
// otherwise. One Surrogate may be shared by any number of profiles and
// goroutines; arm it per profile through Options.Surrogate.
type Surrogate = surrogate.Predictor

// SurrogateConfig tunes a Surrogate; see the field docs in
// internal/surrogate. The zero value selects the defaults (1024-sample
// stores, K=8, 5% confidence bound, shadow sampling every 8th hit).
type SurrogateConfig = surrogate.Config

// NewSurrogate builds a surrogate predictor.
func NewSurrogate(cfg SurrogateConfig) *Surrogate {
	return surrogate.New(cfg)
}

// surrogateInit lazily computes the profile's request-independent
// surrogate inputs: tree-shape/counter stats and the partition key
// (the tree fingerprint, so re-profiled machine variants train in their
// own partitions while tree-only variants share one).
func (p *Profile) surrogateInit() {
	p.surrOnce.Do(func() {
		ts := surrogate.Stats(p.Tree, p.Counters)
		p.surrStats = &ts
		p.surrKey = fmt.Sprintf("tree:%016x", ts.Fingerprint)
	})
}

// surrogateFeatures returns the deterministic feature vector of req
// against this profile: cached tree stats, the request scalars, and the
// profile's own machine spec (req.Machine has already resolved to this
// profile). The vector encodes req.Threads as given.
func (p *Profile) surrogateFeatures(req Request) []float64 {
	p.surrogateInit()
	rf := surrogate.RequestFeatures{
		Method:      uint8(req.Method),
		Threads:     req.Threads,
		Paradigm:    uint8(req.Paradigm),
		SchedKind:   uint8(req.Sched.Kind),
		SchedChunk:  req.Sched.Chunk,
		MemoryModel: req.MemoryModel && p.Model != nil,
	}
	return surrogate.Vector(p.surrStats, rf, p.opts.Machine.Spec)
}

// surrogateCell is one request's consultation of the armed surrogate.
type surrogateCell struct {
	sg     *Surrogate // nil when the profile is unarmed
	key    string
	vec    []float64
	pred   float64
	hit    bool // confident and not shadow sampled: pred is the answer
	shadow bool // confident but shadow sampled: pred is checked against the emulation
}

// query consults p's surrogate, if armed, for the resolved req on its
// machine's profile p.
func (p *Profile) query(req Request) surrogateCell {
	c := surrogateCell{sg: p.opts.Surrogate}
	if c.sg == nil {
		return c
	}
	c.vec = p.surrogateFeatures(req)
	c.key = p.surrKey
	val, ok, shadow := c.sg.Predict(c.key, c.vec)
	c.pred, c.hit, c.shadow = val, ok && !shadow, ok && shadow
	return c
}

// train feeds the cell's exact emulated speedup into the training store,
// closing a shadow-sampled pair first.
func (c *surrogateCell) train(speedup float64) {
	if c.sg == nil {
		return
	}
	if c.shadow {
		c.sg.RecordShadow(c.pred, speedup)
	}
	c.sg.Observe(c.key, c.vec, speedup)
}

// SeedSurrogateCtx pre-seeds the surrogate's training store from a
// request grid — typically the grid of a completed sweep, so interactive
// traffic starts against a warm store. Cells the surrogate already
// answers confidently are served from it (and not re-observed);
// everything else feeds back its emulated result. Once ctx fires no new
// cell starts. The cells emulate on a pool of workers, but the store
// consults and learns them in request order, so it ends exactly as
// EstimateCtx over reqs one by one leaves it, whatever the worker count.
// A request Resolve rejects fails the seeding before any cell runs.
// Otherwise the first cell error (or the cancellation) is returned; cells
// already seeded stay in the store.
func (p *Profile) SeedSurrogateCtx(ctx context.Context, reqs []Request, workers int) error {
	if p.opts.Surrogate == nil {
		return errors.New("prophet: SeedSurrogateCtx needs Options.Surrogate armed")
	}
	reqs = append([]Request(nil), reqs...)
	for i := range reqs {
		var err error
		if reqs[i], err = p.Resolve(reqs[i]); err != nil {
			return err
		}
	}
	outs := sweep.RunCtx(ctx, sweep.Engine{Workers: workers, Metrics: p.opts.Observer.Metrics},
		len(reqs), func(ctx context.Context, i int) (Estimate, error) {
			vp, _, err := p.forRequest(ctx, reqs[i])
			if err != nil {
				return Estimate{}, err
			}
			return vp.emulate(ctx, reqs[i])
		})
	var first error
	for i, o := range outs {
		var c surrogateCell
		// Skipped cells and variants that failed to build are never
		// consulted.
		if vp, ok := p.peekMachine(reqs[i].Machine); ok && !o.Skipped {
			c = vp.query(reqs[i])
		}
		switch {
		case c.hit:
		case o.Err == nil:
			c.train(o.Value.Speedup)
		case first == nil:
			first = o.Err
		}
	}
	return first
}
