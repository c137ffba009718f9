package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

const (
	sessionWorkers = 4
	cycleEpochs    = 4   // epochs per op: three small batches, then a big one
	smallBatch     = 32  // ops per epoch
	bigBatch       = 512 // ops in every cycleEpochs-th epoch
)

// sessionW is a hot 4-worker session (pipe transport, greedy partitioner)
// absorbing a seeded churn stream while three subscribers listen. One op is
// one cycle of cycleEpochs Push epochs. No protocol rounds run after epoch
// 0, so this workload bypasses the round path batch and cluster stress.
type sessionW struct {
	cfg config
	n   int
	T   int

	s      *session.Session
	topics []session.Topic
	churn  *flapper
	cur    *graph.Graph // graph as of the last sealed epoch
	assign []int        // the session's node placement as of the same epoch
	epoch  int          // epochs pushed so far
}

// step is one epoch of a cycle: its delta, and the graph and placement
// after it.
type step struct {
	ops    int
	d      dist.GraphDelta
	g      *graph.Graph
	assign []int
}

func newSession(cfg config) *sessionW {
	n := 10_000
	if cfg.n > 0 {
		n = cfg.n
	}
	return &sessionW{cfg: cfg, n: n, T: core.TForEpsilon(n, eps)}
}

func (w *sessionW) size() (int, int, int) { return w.n, w.cur.M(), w.T }

func (w *sessionW) options() session.Options {
	return session.Options{P: sessionWorkers, Rounds: w.T, Part: shard.Greedy{}}
}

// setup generates the graph, opens the session (its epoch-0 run included)
// and registers the subscribers: the top 10, a threshold near the top of
// the initial values, and node 0's coreness.
func (w *sessionW) setup() error {
	g := graph.BarabasiAlbert(w.n, 4, w.cfg.seed)
	s, err := session.Open(g, w.options())
	if err != nil {
		return err
	}
	w.s, w.cur, w.epoch = s, g, 0
	w.churn = newFlapper(g, w.cfg.churnSeed)
	vals := s.Values()
	sort.Float64s(vals)
	w.topics = []session.Topic{
		{Kind: session.TopicTopK, K: 10},
		{Kind: session.TopicThreshold, X: vals[len(vals)*9/10]},
		{Kind: session.TopicCoreness, Node: 0},
	}
	for _, t := range w.topics {
		s.Subscribe(t)
	}
	return nil
}

func (w *sessionW) prepare() error {
	w.assign = w.options().Part.Partition(w.cur, sessionWorkers)
	return sameBits("epoch-0 values vs core.Run", w.s.Values(), core.Run(w.cur, core.Options{Rounds: w.T}).B)
}

// cycle draws the next cycle's deltas from the churn stream and the graph
// each leaves.
func (w *sessionW) cycle() ([]step, error) {
	steps := make([]step, cycleEpochs)
	g, assign := w.cur, w.assign
	for k := range steps {
		e := w.epoch + k + 1
		ops := smallBatch
		if e%cycleEpochs == 0 {
			ops = bigBatch
		}
		d := w.churn.next(ops)
		next, err := d.Apply(g)
		if err != nil {
			return nil, err
		}
		// The placement every worker and the coordinator rebalance to.
		assign = shard.RebalanceAssign(w.options().Part, next, sessionWorkers, assign, d, 0)
		steps[k] = step{ops, d, next, assign}
		g = next
	}
	w.cur, w.assign, w.epoch = g, assign, w.epoch+cycleEpochs
	return steps, nil
}

// push runs a cycle on s, handing each Push to each (which times or
// traces it), and returns the values and report of every epoch.
func push(s *session.Session, steps []step, each func(k int, f func())) ([][]float64, []*session.EpochReport, error) {
	vals := make([][]float64, len(steps))
	reps := make([]*session.EpochReport, len(steps))
	for k, st := range steps {
		var err error
		each(k, func() { reps[k], err = s.Push(st.d, 0) })
		if err != nil {
			return nil, nil, fmt.Errorf("push of a %d-op batch: %w", st.ops, err)
		}
		vals[k] = s.Values()
	}
	return vals, reps, nil
}

func (w *sessionW) op() (*outcome, error) {
	steps, err := w.cycle()
	if err != nil {
		return nil, err
	}
	var m meter
	var parts []part
	before := w.s.Stat().DeltaBytes
	first := w.s.Epoch() + 1
	vals, reps, err := push(w.s, steps, func(k int, f func()) {
		parts = append(parts, part{fmt.Sprintf("epoch%d", steps[k].ops), m.time(f)})
	})
	if err != nil {
		return nil, err
	}
	w.corrupt(vals)
	var wire, pushed int64
	for k, st := range steps {
		p, t := epochWire(st, reps[k])
		pushed, wire = pushed+p, wire+t
	}
	counted := w.s.Stat().DeltaBytes - before
	return &outcome{
		sample: sample{cost: m.cost, wire: wire, parts: parts},
		check: func() error {
			if pushed != counted {
				return fmt.Errorf("delta pushes re-encode to %d bytes, the session counted %d", pushed, counted)
			}
			return w.check(steps, vals, reps, first)
		},
	}, nil
}

// epochWire is what one epoch puts on the session's connections, in bytes:
// the delta push to every worker, each worker's reconverge (its share of
// the change set under the placement after the epoch), and the stamp to
// every worker and its echo. Each record is re-encoded with the session's
// own wire encoders from the epoch's report and framed as net.Conn frames
// it (uvarint length, type byte, body). push is one delta push body, which
// the session counts too.
func epochWire(st step, rep *session.EpochReport) (push, total int64) {
	frame := func(body []byte) int64 {
		return int64(len(binary.AppendUvarint(nil, uint64(1+len(body)))) + 1 + len(body))
	}
	body := session.AppendDeltaPush(nil, rep.Epoch, 0, st.d)
	total = sessionWorkers * frame(body)
	own := make([][]session.ValueChange, sessionWorkers)
	for _, ch := range rep.Changed {
		own[st.assign[ch.Node]] = append(own[st.assign[ch.Node]], ch)
	}
	for _, chs := range own {
		total += frame(session.AppendReconverge(nil, session.Reconverge{
			Epoch: rep.Epoch, GraphHash: rep.GraphHash, PartDigest: rep.PartDigest, Changes: chs}))
	}
	total += 2 * sessionWorkers * frame(codec.AppendStamp(nil, rep.Stamp()))
	return int64(len(body)), total
}

func (w *sessionW) corrupt(vals [][]float64) {
	if w.cfg.corrupt {
		vals[0][0] += 1
	}
}

// check compares the values after every epoch with core.Run on the
// mutated graph, bit for bit.
func (w *sessionW) check(steps []step, vals [][]float64, reps []*session.EpochReport, first int) error {
	for k, st := range steps {
		if reps[k].Epoch != first+k {
			return fmt.Errorf("push sealed epoch %d, want %d", reps[k].Epoch, first+k)
		}
		if reps[k].GraphHash != st.g.Fingerprint() || reps[k].PartDigest != shard.PartitionDigest(st.assign) {
			return fmt.Errorf("epoch %d sealed another graph or placement than the churn stream gives", reps[k].Epoch)
		}
		ref := core.Run(st.g, core.Options{Rounds: w.T}).B
		if err := sameBits(fmt.Sprintf("epoch %d values vs core.Run", reps[k].Epoch), vals[k], ref); err != nil {
			return err
		}
	}
	return nil
}

// tracedOp opens a second session, traced, on the current graph, warms it
// with one cycle and traces the next. The untraced session then absorbs the
// same two cycles, so every traced epoch is compared with the untraced
// epoch on the same graph; a standalone dynamic.Maintainer replays the
// traced cycle beside the op as the one-repairer floor.
func (w *sessionW) tracedOp(rec *recorder) (*outcome, error) {
	rec.call("graph.BarabasiAlbert", "graph", "", func() { graph.BarabasiAlbert(w.n, 4, w.cfg.seed) })
	rec.call("shard.Partition", "shard", "", func() { shard.Greedy{}.Partition(w.cur, sessionWorkers) })
	opt := w.options()
	opt.Trace = rec.tr
	var ts *session.Session
	var err error
	rec.call("session.Open", "session", "", func() { ts, err = session.Open(w.cur, opt) })
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	for _, t := range w.topics {
		ts.Subscribe(t)
	}
	warm, err := w.cycle()
	if err != nil {
		return nil, err
	}
	untimed := func(_ int, f func()) { f() }
	if _, _, err := push(ts, warm, untimed); err != nil {
		return nil, err
	}
	var mnt *dynamic.Maintainer
	rec.call("dynamic.New", "dynamic", "", func() { mnt = dynamic.New(warm[len(warm)-1].g, w.T) })

	steps, err := w.cycle()
	if err != nil {
		return nil, err
	}
	runtime.GC() // as before every untraced timed call
	root := rec.beginOp(0)
	vals, reps, err := push(ts, steps, func(_ int, f func()) { rec.call("session.Push", "session", "", f) })
	rec.endOp(root)
	if err != nil {
		return nil, err
	}
	single := make([][]float64, len(steps))
	for k, st := range steps {
		rec.call("dynamic.ApplyDelta", "dynamic", "", func() { err = mnt.ApplyDelta(st.d) })
		if err != nil {
			return nil, err
		}
		single[k] = append([]float64(nil), mnt.B()...)
	}
	w.corrupt(vals)
	cnt := counts{}
	for _, r := range reps {
		cnt["session.changed_values"] += float64(len(r.Changed))
		cnt["session.notifications"] += float64(len(r.Notifications))
	}

	// The untraced session replays both cycles.
	first := w.s.Epoch() + 1
	if _, _, err := push(w.s, warm, untimed); err != nil {
		return nil, err
	}
	base, baseReps, err := push(w.s, steps, untimed)
	if err != nil {
		return nil, err
	}
	return &outcome{
		root:   root,
		counts: cnt,
		check: func() error {
			if err := w.check(steps, base, baseReps, first+cycleEpochs); err != nil {
				return err
			}
			for k := range steps {
				if err := sameBits("traced epoch values", vals[k], base[k]); err != nil {
					return err
				}
				if err := sameBits("dynamic.Maintainer values", single[k], base[k]); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// flapPool is the number of candidate edges the churn stream toggles: half
// drawn from the initial graph, half new node pairs. It is several big
// batches wide so that one seed's pool holds about as many hub edges as
// another's, and the per-epoch repair cost does not swing with the seed.
const flapPool = 8 * bigBatch

// flapper is the seeded churn stream: every op toggles one edge of a fixed
// candidate pool, deleting it when present and inserting it when absent.
// The graph never strays more than the pool from where it started, so an
// epoch late in a run costs what an early one does; uniform random churn
// (dist.RandomChurn) would keep replacing preferential-attachment edges
// with uniform ones and make every epoch cheaper than the last.
type flapper struct {
	rng     *rand.Rand
	pool    []dist.EdgeOp
	present []bool
}

func newFlapper(g *graph.Graph, seed int64) *flapper {
	f := &flapper{rng: rand.New(rand.NewSource(seed))}
	edges := g.Edges()
	for _, k := range f.rng.Perm(len(edges))[:flapPool/2] {
		f.pool = append(f.pool, dist.EdgeOp{U: edges[k].U, V: edges[k].V, W: 1})
		f.present = append(f.present, true)
	}
	for len(f.pool) < flapPool {
		u, v := f.rng.Intn(g.N()), f.rng.Intn(g.N())
		if u != v {
			f.pool = append(f.pool, dist.EdgeOp{U: u, V: v, W: 1})
			f.present = append(f.present, false)
		}
	}
	return f
}

// next draws a batch of ops toggles.
func (f *flapper) next(ops int) dist.GraphDelta {
	d := dist.GraphDelta{Ops: make([]dist.EdgeOp, ops)}
	for i := range d.Ops {
		k := f.rng.Intn(len(f.pool))
		d.Ops[i] = f.pool[k]
		d.Ops[i].Del = f.present[k]
		f.present[k] = !f.present[k]
	}
	return d
}

func (w *sessionW) release() { w.cur, w.assign, w.churn, w.topics = nil, nil, nil, nil }

func (w *sessionW) close() {
	if w.s != nil {
		w.s.Close()
		w.s = nil
	}
}
