package main

import (
	"fmt"
	"math"
	"runtime"

	"distkcore"
	"distkcore/internal/cliutil"
	"distkcore/internal/core"
	"distkcore/internal/densest"
	"distkcore/internal/dist"
	"distkcore/internal/exact"
	"distkcore/internal/graph"
	"distkcore/internal/orient"
)

const eps = 0.5

// batch is the one-machine decomposition a user runs through cmd/kcore:
// distributed coreness and the weak densest subset protocol on the
// worker-pool engine with one worker per CPU, then the orientation. No
// shard, net or session code runs.
type batch struct {
	cfg   config
	n     int
	T     int
	g     *graph.Graph
	gamma float64

	// references
	coreRef  []float64 // core.Run
	exactRef []float64 // exact coreness
	weakRef  *densest.Result
}

type batchOut struct {
	core    *core.Result
	coreMet dist.Metrics
	weak    *densest.Result
	weakMet dist.Metrics
	orient  distkcore.OrientationResult
}

// newBatch sizes the graph so that one op takes a few seconds: at 10⁵
// nodes an op takes about 12 s and a run would time one or two.
func newBatch(cfg config) *batch {
	n := 30_000
	if cfg.n > 0 {
		n = cfg.n
	}
	return &batch{cfg: cfg, n: n, T: core.TForEpsilon(n, eps), gamma: 2 * (1 + eps)}
}

func (b *batch) size() (int, int, int) { return b.n, b.g.M(), b.T }

func (b *batch) setup() error {
	b.g = graph.BarabasiAlbert(b.n, 4, b.cfg.seed)
	return nil
}

func (b *batch) prepare() error {
	b.coreRef = core.Run(b.g, core.Options{Rounds: b.T}).B
	b.exactRef = exact.CoresWeighted(b.g)
	b.weakRef = densest.Weak(b.g, densest.Config{Gamma: b.gamma})
	return nil
}

func (b *batch) engine() dist.ParEngine { return dist.ParEngine{W: runtime.NumCPU()} }

func (b *batch) op() (*outcome, error) {
	o, s := b.timed()
	return &outcome{sample: s, check: func() error { return b.check(o) }}, nil
}

// timed makes the op's three calls, each timed.
func (b *batch) timed() (batchOut, sample) {
	var m meter
	var o batchOut
	eng := b.engine()
	dc := m.time(func() { o.core, o.coreMet = core.RunDistributed(b.g, core.Options{Rounds: b.T}, eng) })
	dd := m.time(func() { o.weak, o.weakMet = densest.RunWeakDistributed(b.g, densest.Config{Gamma: b.gamma}, eng) })
	do := m.time(func() { o.orient = distkcore.ApproxOrientation(b.g, eps) })
	b.corrupt(&o)
	return o, sample{
		cost: m.cost,
		// The codec-priced volume of both protocol runs' messages.
		wire:  o.coreMet.WireBytes + o.weakMet.WireBytes,
		parts: []part{{"coreness", dc}, {"densest", dd}, {"orient", do}},
	}
}

func (b *batch) corrupt(o *batchOut) {
	if b.cfg.corrupt {
		o.core.B[0] += 1
	}
}

// tracedOp is op on the traced seams: the engine carries the obs tracer,
// and the orientation runs as the two calls ApproxOrientation makes, each
// in its own span. An untraced op just before it gives the outputs it must
// match.
func (b *batch) tracedOp(rec *recorder) (*outcome, error) {
	base, _ := b.timed()
	var g *graph.Graph
	rec.call("graph.BarabasiAlbert", "graph", "", func() { g = graph.BarabasiAlbert(b.n, 4, b.cfg.seed) })
	if g.Fingerprint() != b.g.Fingerprint() {
		return nil, fmt.Errorf("graph generation is not a function of the seed")
	}
	eng := cliutil.Traced(b.engine(), rec.tr)
	var o batchOut
	runtime.GC() // as before every untraced timed call
	root := rec.beginOp(0)
	rec.call("core.RunDistributed", "dist", "core", func() {
		o.core, o.coreMet = core.RunDistributed(b.g, core.Options{Rounds: b.T}, eng)
	})
	rec.call("densest.RunWeakDistributed", "dist", "densest", func() {
		o.weak, o.weakMet = densest.RunWeakDistributed(b.g, densest.Config{Gamma: b.gamma}, eng)
	})
	rec.call("orient.Approximate", "orient", "", func() {
		var res *core.Result
		rec.call("core.Run", "core", "", func() { res = core.Run(b.g, core.Options{Rounds: b.T, TrackAux: true}) })
		rec.call("orient.FromElimination", "orient", "", func() { o.orient.O, _ = orient.FromElimination(b.g, res) })
		o.orient.MaxLoad, o.orient.B, o.orient.T = o.orient.O.MaxLoad(b.g), res.B, b.T
	})
	rec.endOp(root)
	b.corrupt(&o)
	return &outcome{
		root: root,
		counts: counts{
			"dist.messages":    float64(o.coreMet.Messages + o.weakMet.Messages),
			"dist.wire_bytes":  float64(o.coreMet.WireBytes + o.weakMet.WireBytes),
			"core.messages":    float64(o.coreMet.Messages),
			"densest.messages": float64(o.weakMet.Messages),
		},
		check: func() error {
			if err := b.check(o); err != nil {
				return err
			}
			return sameBatch(o, base)
		},
	}, nil
}

func (b *batch) check(o batchOut) error {
	if err := sameBits("coreness vs core.Run", o.core.B, b.coreRef); err != nil {
		return err
	}
	bound := 2 * (1 + eps)
	for v, c := range b.exactRef {
		if beta := o.core.B[v]; beta < c-1e-9 || beta > bound*c+1e-9 {
			return fmt.Errorf("coreness of node %d is %v, exact %v: outside [c, %v·c]", v, beta, c, bound)
		}
	}
	if err := sameWeak(o.weak, b.weakRef, 1e-9); err != nil {
		return fmt.Errorf("weak densest vs densest.Weak: %w", err)
	}
	if !o.orient.O.Feasible(b.g) {
		return fmt.Errorf("orientation leaves an edge without an endpoint owner")
	}
	maxB := 0.0
	for _, x := range o.orient.B {
		maxB = math.Max(maxB, x)
	}
	if load := o.orient.O.MaxLoad(b.g); load != o.orient.MaxLoad || load > maxB+1e-9 {
		return fmt.Errorf("orientation max load %v (reported %v) exceeds max β %v", load, o.orient.MaxLoad, maxB)
	}
	return nil
}

// sameBatch compares a traced op's outputs with the untraced op's.
func sameBatch(o, base batchOut) error {
	if base.core == nil {
		return fmt.Errorf("no untraced op to compare the traced op with")
	}
	if o.coreMet != base.coreMet || o.weakMet != base.weakMet {
		return fmt.Errorf("traced metrics %+v %+v differ from untraced %+v %+v", o.coreMet, o.weakMet, base.coreMet, base.weakMet)
	}
	if err := sameBits("traced coreness", o.core.B, base.core.B); err != nil {
		return err
	}
	if err := sameWeak(o.weak, base.weak, 0); err != nil {
		return fmt.Errorf("traced weak densest: %w", err)
	}
	for e, u := range o.orient.O.Owner {
		if base.orient.O.Owner[e] != u {
			return fmt.Errorf("traced orientation gives edge %d to %d, untraced to %d", e, u, base.orient.O.Owner[e])
		}
	}
	return nil
}

func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for v := range got {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Errorf("%s: node %d is %v, want %v", what, v, got[v], want[v])
		}
	}
	return nil
}

// sameWeak compares two weak densest outcomes subset by subset (keyed by
// leader) and node by node. With tol = 0 every float must match bit for
// bit; the centralized reference sums in another order, so it is compared
// with the tolerance the repository's own tests use.
func sameWeak(a, b *densest.Result, tol float64) error {
	near := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.Abs(x-y) <= tol
	}
	if len(a.B) != len(b.B) {
		return fmt.Errorf("%d surviving numbers, want %d", len(a.B), len(b.B))
	}
	for v := range a.B {
		if !near(a.B[v], b.B[v]) {
			return fmt.Errorf("surviving number of node %d is %v, want %v", v, a.B[v], b.B[v])
		}
	}
	if len(a.Subsets) != len(b.Subsets) {
		return fmt.Errorf("%d subsets, want %d", len(a.Subsets), len(b.Subsets))
	}
	want := map[graph.NodeID]densest.Subset{}
	for _, s := range b.Subsets {
		want[s.Leader] = s
	}
	for _, s := range a.Subsets {
		t, ok := want[s.Leader]
		if !ok || s.TStar != t.TStar || !near(s.Density, t.Density) || len(s.Members) != len(t.Members) {
			return fmt.Errorf("subset led by %d differs", s.Leader)
		}
		for j, v := range s.Members {
			if t.Members[j] != v {
				return fmt.Errorf("subset led by %d: member %d is %d, want %d", s.Leader, j, v, t.Members[j])
			}
		}
	}
	return nil
}

func (b *batch) release() { b.coreRef, b.exactRef, b.weakRef = nil, nil, nil }

func (b *batch) close() {}
