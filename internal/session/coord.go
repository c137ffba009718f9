package session

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// EpochReport is what one sealed epoch yields at the coordinator: the
// change set, the churn ledger, the four digests and the notifications the
// epoch fired.
type EpochReport struct {
	Epoch int
	// Changed lists every node whose β_T moved, ascending.
	Changed []ValueChange
	// Churn is the placement ledger of the absorbed batch.
	Churn shard.ChurnMetrics
	// The sealed state digests, as stamped.
	GraphHash    uint64
	PartDigest   uint64
	ValuesDigest uint64
	ChainDigest  uint64
	// Notifications are the epoch's subscription firings, in the protocol's
	// deterministic order.
	Notifications []Notification
}

// Stamp returns the epoch's codec.Stamp (what the wire server forwards to
// pushers as a receipt).
func (r *EpochReport) Stamp() codec.Stamp {
	return codec.Stamp{Epoch: r.Epoch, GraphHash: r.GraphHash, PartDigest: r.PartDigest,
		ValuesDigest: r.ValuesDigest, ChainDigest: r.ChainDigest, Changed: len(r.Changed)}
}

// Coordinator is the coordinator side of a live session: the authoritative
// graph, assignment and value vector, the digest chain, and the
// subscription registry. It drives epochs over a net.Hub whose workers have
// already completed their epoch-0 run and entered the epoch loop
// (ServeWorker). Not safe for concurrent use — one goroutine owns the
// session.
type Coordinator struct {
	hub    *net.Hub
	g      *graph.Graph
	assign []int
	part   shard.Partitioner
	p      int
	b      []float64
	epoch  int
	chain  uint64
	gh, pd uint64
	vd     uint64
	subs   *SubManager
	broken error
	// trace, when set, records one epoch span per Push plus the publish
	// span (repair/rebalance spans come from the worker side).
	trace *obs.Tracer
	// met and rep are the epoch-0 run's outcome.
	met dist.Metrics
	rep *net.Report
	// Crash recovery (DESIGN.md §13), armed by NewCoordinator: respawn
	// produces a fresh connection to a restarted worker (through
	// net.Hub.Respawn, which also caps the attempts), lastStamp is the
	// re-admission stamp (the last sealed epoch's) and recovered counts the
	// successful recoveries.
	respawn   func(shard int) (*net.Conn, error)
	lastStamp codec.Stamp
	recovered int64
	// Running totals behind Stat; owned by the session goroutine.
	pushes, rejected    int64
	changed, deltaBytes int64
	notifs, epochMicros int64
	// statp is the lock-free snapshot StatView serves to other goroutines.
	statp atomic.Pointer[codec.Stat]
}

// NewCoordinator opens a session over the hub: it drives the epoch-0 run
// spec describes (asking the workers for their values), assembles the
// run's value vector and seals it as epoch 0 — it broadcasts the epoch-0 stamp and
// collects every worker's verify echo, so a returned Coordinator means all
// P oracles agree with the run bit for bit. g and assign are the run's
// graph and assignment (the coordinator copies assign); spec.Trace also
// records the coordinator's epoch and publish spans.
//
// When spec arms recovery (Recover with a Respawn), the same respawn serves
// session-level recovery (DESIGN.md §13): a worker fault during an epoch
// seal is answered by respawning the worker and re-admitting it with the
// last sealed epoch's stamp instead of latching the session broken. The
// respawned worker recomputes its state from the current committed graph —
// sessions run Λ = ℝ with an exact incremental oracle, so the recomputation
// is bit-identical to the state the dead worker held — which is why no
// state ships. Faults during the epoch-0 seal itself stay fatal.
func NewCoordinator(hub *net.Hub, spec net.Spec, g *graph.Graph, assign []int, part shard.Partitioner) (*Coordinator, error) {
	switch {
	case len(assign) != g.N():
		return nil, fmt.Errorf("session: assignment covers %d nodes, graph has %d", len(assign), g.N())
	case part == nil:
		return nil, fmt.Errorf("session: coordinator needs the partitioner for epoch rebalances")
	}
	spec.WantValues = true
	met, rep, err := hub.Run(spec)
	if err != nil {
		return nil, err
	}
	b, err := rep.Assemble(g.N())
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		hub: hub, g: g, part: part, p: hub.P(),
		assign: append([]int(nil), assign...),
		b:      b,
		subs:   NewSubManager(),
		trace:  spec.Trace,
		met:    met,
		rep:    rep,
	}
	c.gh, c.pd, c.vd = g.Fingerprint(), shard.PartitionDigest(c.assign), ValuesDigest(c.b)
	c.chain = ChainNext(0, c.gh, c.pd, c.vd)
	st := codec.Stamp{Epoch: 0, GraphHash: c.gh, PartDigest: c.pd, ValuesDigest: c.vd, ChainDigest: c.chain}
	stamp := codec.AppendStamp(nil, st)
	for i := 0; i < c.p; i++ {
		if err := c.sendTo(i, net.RecValuesDigest, stamp); err != nil {
			return nil, c.fail(0, "stamp-broadcast", err)
		}
	}
	if err := c.collectEchoes(st, nil, nil); err != nil {
		return nil, c.fail(0, "stamp-echo", err)
	}
	if spec.Recover {
		c.respawn = spec.Respawn
	}
	c.lastStamp = st
	c.publishStat()
	return c, nil
}

// Metrics returns the epoch-0 run's dist.Metrics.
func (c *Coordinator) Metrics() dist.Metrics { return c.met }

// Report returns the epoch-0 run's cluster report.
func (c *Coordinator) Report() *net.Report { return c.rep }

// Recoveries returns the number of worker crash recoveries this session has
// performed.
func (c *Coordinator) Recoveries() int64 { return c.recovered }

// recoverable reports whether worker death is survivable.
func (c *Coordinator) recoverable() bool { return c.respawn != nil }

// recoverWorker respawns worker w and re-admits it: the fresh connection
// replaces the dead one in the hub, the last sealed epoch's stamp goes out
// as the resume record, and the worker — having recomputed its state from
// the committed graph — must echo it byte-identically. On return the worker
// stands at the last sealed epoch, parked in its serve loop.
func (c *Coordinator) recoverWorker(w int) error {
	if !c.recoverable() {
		return fmt.Errorf("session: worker %d died and recovery is not armed", w)
	}
	sp := c.trace.Begin(obs.PhaseRecover, c.epoch, w)
	defer sp.End()
	cn, err := c.hub.Respawn(w, c.respawn)
	if err != nil {
		return err
	}
	st := c.lastStamp
	if err := cn.WriteRecord(net.RecEpochResume, codec.AppendStamp(nil, st)); err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	if err := cn.Flush(); err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	typ, body, err := c.hub.NextFrom(w)
	if err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	if typ != net.RecValuesDigest {
		return fmt.Errorf("session: worker %d answered resume with record type %d", w, typ)
	}
	echo, _, err := codec.DecodeStamp(body)
	if err != nil {
		return fmt.Errorf("session: re-admitting worker %d: %w", w, err)
	}
	if echo != st {
		return fmt.Errorf("session: worker %d resume echo %+v, want %+v", w, echo, st)
	}
	c.recovered++
	c.publishStat()
	return nil
}

// redoEpoch walks a freshly recovered worker — standing at the last sealed
// epoch — through the in-flight epoch privately: re-send the delta push,
// collect its reconverge (which determinism demands equal the dead
// incarnation's change set bit for bit), and hand it the sealing stamp. Its
// echo then arrives through the ordinary collection.
func (c *Coordinator) redoEpoch(w, epoch int, push []byte, st codec.Stamp, want []ValueChange) error {
	cn := c.hub.Conn(w)
	if err := cn.WriteRecord(net.RecDeltaPush, push); err != nil {
		return fmt.Errorf("session: redoing epoch %d at worker %d: %w", epoch, w, err)
	}
	if err := cn.Flush(); err != nil {
		return fmt.Errorf("session: redoing epoch %d at worker %d: %w", epoch, w, err)
	}
	typ, body, err := c.hub.NextFrom(w)
	if err != nil {
		return fmt.Errorf("session: redoing epoch %d at worker %d: %w", epoch, w, err)
	}
	if typ != net.RecReconverge {
		return fmt.Errorf("session: worker %d sent record type %d during epoch %d redo, want reconverge", w, typ, epoch)
	}
	r, err := DecodeReconverge(body)
	if err != nil {
		return err
	}
	if r.Epoch != epoch || r.GraphHash != st.GraphHash || r.PartDigest != st.PartDigest {
		return fmt.Errorf("session: worker %d redo reconverge (epoch %d, %#x, %#x) disagrees with seal (epoch %d, %#x, %#x)",
			w, r.Epoch, r.GraphHash, r.PartDigest, epoch, st.GraphHash, st.PartDigest)
	}
	if len(r.Changes) != len(want) {
		return fmt.Errorf("session: worker %d redo shipped %d changes, dead incarnation shipped %d", w, len(r.Changes), len(want))
	}
	for i := range want {
		if r.Changes[i] != want[i] {
			return fmt.Errorf("session: worker %d redo change %d differs from the dead incarnation's", w, i)
		}
	}
	if err := cn.WriteRecord(net.RecValuesDigest, codec.AppendStamp(nil, st)); err != nil {
		return fmt.Errorf("session: redoing epoch %d at worker %d: %w", epoch, w, err)
	}
	if err := cn.Flush(); err != nil {
		return fmt.Errorf("session: redoing epoch %d at worker %d: %w", epoch, w, err)
	}
	return nil
}

// Push absorbs one delta batch as the next epoch: broadcast, collect every
// worker's reconverge, seal with a stamp, publish notifications. A batch
// that fails validation (out-of-range endpoint, delete of a missing edge)
// is rejected BEFORE anything is broadcast — the error is returned and the
// session stays live, because no worker saw the batch. Any failure after
// the broadcast breaks the session permanently (state may have forked), and
// every later call returns the original error.
func (c *Coordinator) Push(d dist.GraphDelta, moveBudget int) (*EpochReport, error) {
	if c.broken != nil {
		return nil, fmt.Errorf("session: broken by earlier error: %w", c.broken)
	}
	if len(d.Ops) == 0 {
		return nil, fmt.Errorf("session: empty delta push")
	}
	// Absorb locally first: AbsorbDelta validates the batch end to end
	// (codec round trip, application, rebalance) without touching a worker.
	g2, next, cm, err := shard.AbsorbDelta(c.part, c.g, c.p, c.assign, d, moveBudget)
	if err != nil {
		c.rejected++
		c.publishStat()
		return nil, fmt.Errorf("session: delta rejected (session still live): %w", err)
	}
	epoch := c.epoch + 1
	sealStart := time.Now()
	ep := c.trace.Begin(obs.PhaseEpoch, epoch, -1)
	push := AppendDeltaPush(nil, epoch, moveBudget, d)
	for i := 0; i < c.p; i++ {
		if err := c.sendTo(i, net.RecDeltaPush, push); err != nil {
			// Dead before the epoch reached it: recover to the sealed epoch
			// and hand it the push again.
			if !c.recoverable() {
				return nil, c.fail(epoch, "delta-broadcast", faultOf(i, err))
			}
			if rerr := c.recoverWorker(i); rerr != nil {
				return nil, c.fail(epoch, "delta-broadcast", faultOf(i, fmt.Errorf("%v (recovery: %w)", err, rerr)))
			}
			if err := c.sendTo(i, net.RecDeltaPush, push); err != nil {
				return nil, c.fail(epoch, "delta-broadcast", faultOf(i, err))
			}
		}
	}
	gh, pd := g2.Fingerprint(), shard.PartitionDigest(next)
	all, byWorker, err := c.collectReconverges(epoch, gh, pd, next, push)
	if err != nil {
		return nil, c.fail(epoch, "reconverge", err)
	}

	// Fold the changes into a fresh vector; prev stays intact for Publish.
	prev := c.b
	cur := append([]float64(nil), prev...)
	for _, ch := range all {
		if math.Float64bits(prev[ch.Node]) != ch.OldBits {
			return nil, c.fail(epoch, "reconverge", fmt.Errorf("session: epoch %d change at node %d claims old bits %#x, coordinator holds %#x",
				epoch, ch.Node, ch.OldBits, math.Float64bits(prev[ch.Node])))
		}
		cur[ch.Node] = math.Float64frombits(ch.NewBits)
	}
	vd := ValuesDigest(cur)
	chain := ChainNext(c.chain, gh, pd, vd)
	st := codec.Stamp{Epoch: epoch, GraphHash: gh, PartDigest: pd, ValuesDigest: vd, ChainDigest: chain, Changed: len(all)}
	for i := 0; i < c.p; i++ {
		if err := c.sendTo(i, net.RecValuesDigest, codec.AppendStamp(nil, st)); err != nil {
			// Dead between its reconverge and the seal: recover to the sealed
			// epoch and redo the in-flight one privately.
			if !c.recoverable() {
				return nil, c.fail(epoch, "stamp-broadcast", faultOf(i, err))
			}
			if rerr := c.recoverWorker(i); rerr != nil {
				return nil, c.fail(epoch, "stamp-broadcast", faultOf(i, fmt.Errorf("%v (recovery: %w)", err, rerr)))
			}
			if rerr := c.redoEpoch(i, epoch, push, st, byWorker[i]); rerr != nil {
				return nil, c.fail(epoch, "stamp-broadcast", faultOf(i, rerr))
			}
		}
	}
	if err := c.collectEchoes(st, push, byWorker); err != nil {
		return nil, c.fail(epoch, "stamp-echo", err)
	}

	// Sealed: commit, then publish against the committed transition.
	c.g, c.assign, c.b = g2, next, cur
	c.epoch, c.chain = epoch, chain
	c.gh, c.pd, c.vd = gh, pd, vd
	c.lastStamp = st
	pub := c.trace.Begin(obs.PhasePublish, epoch, -1)
	notifs := c.subs.Publish(epoch, prev, cur, changedNodes(all))
	pub.EndN(0, int64(len(notifs)))
	ep.EndN(int64(len(push)), int64(len(all)))
	c.pushes++
	c.changed += int64(len(all))
	c.deltaBytes += int64(len(push))
	c.notifs += int64(len(notifs))
	c.epochMicros += time.Since(sealStart).Microseconds()
	c.publishStat()
	return &EpochReport{
		Epoch: epoch, Changed: all, Churn: cm,
		GraphHash: gh, PartDigest: pd, ValuesDigest: vd, ChainDigest: chain,
		Notifications: notifs,
	}, nil
}

// collectReconverges gathers one reconverge per worker, verifying digests,
// epoch, post-rebalance ownership and duplicate-freedom. It returns the
// merged change set ascending by node plus each worker's own slice (what a
// stamp-phase recovery redo must reproduce). A worker fault mid-collection
// is recovered inline when recovery is armed: the dead worker's
// contribution — if any — is discarded, the worker restored to the sealed
// epoch, and the push re-sent; its fresh reconverge is bit-identical by
// determinism.
func (c *Coordinator) collectReconverges(epoch int, gh, pd uint64, next []int, push []byte) ([]ValueChange, [][]ValueChange, error) {
	byWorker := make([][]ValueChange, c.p)
	got := make([]bool, c.p)
	for n := 0; n < c.p; {
		from, typ, body, err := c.hub.Next()
		if err != nil {
			w := c.hub.Blame(from, func(i int) bool { return !got[i] })
			if w < 0 || !c.recoverable() {
				return nil, nil, faultOf(from, err)
			}
			if got[w] {
				// Died after reconverging; drop its set and let the redo
				// reproduce it, so one path covers both orders.
				got[w], byWorker[w] = false, nil
				n--
			}
			if rerr := c.recoverWorker(w); rerr != nil {
				return nil, nil, faultOf(w, fmt.Errorf("%v (recovery: %w)", err, rerr))
			}
			if serr := c.sendTo(w, net.RecDeltaPush, push); serr != nil {
				return nil, nil, faultOf(w, serr)
			}
			continue
		}
		if typ != net.RecReconverge {
			return nil, nil, faultOf(from, fmt.Errorf("session: worker %d sent record type %d, want reconverge", from, typ))
		}
		r, err := DecodeReconverge(body)
		if err != nil {
			return nil, nil, faultOf(from, err)
		}
		switch {
		case got[from]:
			return nil, nil, faultOf(from, fmt.Errorf("session: worker %d reconverged twice at epoch %d", from, epoch))
		case r.Epoch != epoch:
			return nil, nil, faultOf(from, fmt.Errorf("session: worker %d reconverged epoch %d, want %d", from, r.Epoch, epoch))
		case r.GraphHash != gh:
			return nil, nil, faultOf(from, fmt.Errorf("session: worker %d epoch %d graph fingerprint %#x, coordinator %#x", from, epoch, r.GraphHash, gh))
		case r.PartDigest != pd:
			return nil, nil, faultOf(from, fmt.Errorf("session: worker %d epoch %d partition digest %#x, coordinator %#x", from, epoch, r.PartDigest, pd))
		}
		for _, ch := range r.Changes {
			if ch.Node < 0 || ch.Node >= len(next) {
				return nil, nil, faultOf(from, fmt.Errorf("session: worker %d shipped change for node %d of %d", from, ch.Node, len(next)))
			}
			if next[ch.Node] != from {
				return nil, nil, faultOf(from, fmt.Errorf("session: worker %d shipped change for node %d owned by shard %d", from, ch.Node, next[ch.Node]))
			}
		}
		got[from] = true
		byWorker[from] = r.Changes
		n++
	}
	var all []ValueChange
	for _, chs := range byWorker {
		all = append(all, chs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Node < all[j].Node })
	for i := 1; i < len(all); i++ {
		if all[i].Node == all[i-1].Node {
			return nil, nil, fmt.Errorf("session: two workers shipped node %d at epoch %d", all[i].Node, epoch)
		}
	}
	return all, byWorker, nil
}

// sendTo writes and flushes one record to worker i (re-reading the hub's
// slot, so a recovery's replacement connection is picked up).
func (c *Coordinator) sendTo(i int, typ byte, body []byte) error {
	cn := c.hub.Conn(i)
	if err := cn.WriteRecord(typ, body); err != nil {
		return fmt.Errorf("session: record to worker %d: %w", i, err)
	}
	if err := cn.Flush(); err != nil {
		return fmt.Errorf("session: record to worker %d: %w", i, err)
	}
	return nil
}

// collectEchoes demands every worker's byte-identical stamp echo. With
// recovery armed (push non-nil), a worker fault is answered by recovering
// the worker and walking it through a private epoch redo; its echo then
// arrives like everyone else's.
func (c *Coordinator) collectEchoes(want codec.Stamp, push []byte, byWorker [][]ValueChange) error {
	got := make([]bool, c.p)
	for n := 0; n < c.p; {
		from, typ, body, err := c.hub.Next()
		if err != nil {
			w := c.hub.Blame(from, func(i int) bool { return !got[i] })
			if w < 0 || push == nil || !c.recoverable() {
				return faultOf(from, err)
			}
			if got[w] {
				// Echoed, then died: it must still be re-admitted for the
				// epochs to come, and the redo makes it echo again.
				got[w] = false
				n--
			}
			if rerr := c.recoverWorker(w); rerr != nil {
				return faultOf(w, fmt.Errorf("%v (recovery: %w)", err, rerr))
			}
			if rerr := c.redoEpoch(w, want.Epoch, push, want, byWorker[w]); rerr != nil {
				return faultOf(w, rerr)
			}
			continue
		}
		if typ != net.RecValuesDigest {
			return faultOf(from, fmt.Errorf("session: worker %d sent record type %d, want stamp echo", from, typ))
		}
		st, _, err := codec.DecodeStamp(body)
		if err != nil {
			return faultOf(from, err)
		}
		if got[from] {
			return faultOf(from, fmt.Errorf("session: worker %d echoed epoch %d twice", from, want.Epoch))
		}
		if st != want {
			return faultOf(from, fmt.Errorf("session: worker %d echoed %+v, want %+v", from, st, want))
		}
		got[from] = true
		n++
	}
	return nil
}

// Bye broadcasts a clean goodbye (best-effort; the session is over either
// way).
func (c *Coordinator) Bye() {
	for i := 0; i < c.p; i++ {
		cn := c.hub.Conn(i)
		_ = cn.WriteRecord(net.RecBye)
		_ = cn.Flush()
	}
}

// Err returns the error that broke the session, nil while it is live. A
// break from a seal in flight is a *BreakCause carrying the epoch, phase
// and implicated worker (Cause unpacks it).
func (c *Coordinator) Err() error { return c.broken }

// Epoch returns the last sealed epoch.
func (c *Coordinator) Epoch() int { return c.epoch }

// ChainDigest returns the chain digest of the last sealed epoch.
func (c *Coordinator) ChainDigest() uint64 { return c.chain }

// Digests returns the last sealed epoch's (graph, partition, values)
// digests.
func (c *Coordinator) Digests() (graphHash, partDigest, valuesDigest uint64) {
	return c.gh, c.pd, c.vd
}

// Values returns a copy of the current value vector.
func (c *Coordinator) Values() []float64 { return append([]float64(nil), c.b...) }

// Graph returns the current graph (immutable; epochs replace it).
func (c *Coordinator) Graph() *graph.Graph { return c.g }

// Subs exposes the subscription registry.
func (c *Coordinator) Subs() *SubManager { return c.subs }
