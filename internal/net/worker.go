package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// ErrKilled is the sentinel a fault-injected worker dies with: the kill
// hook closed the connection mid-protocol, exactly what a SIGKILL looks
// like from the coordinator's side. Engine wrappers recognize it (via
// errors.Is) and suppress the error record a real failure would send — a
// crashed process sends nothing.
var ErrKilled = errors.New("net: worker killed by fault injection")

// KillFunc is the fault-injection seam of the recovery test harness: a
// worker consults it at each phase boundary of its round loop (step, send,
// barrier-wait, recv, deliver) and dies on the spot when it returns true.
type KillFunc func(phase obs.Phase, round int) bool

// frameChainSeed starts every digest of the mesh protocol: the per-flow
// chunk digests, the per-round receive digest and each worker's cumulative
// frame chain (FNV-1a offset basis). A checkpoint carries the chain so the
// coordinator can verify the worker received exactly the flows its peers
// proved they sent — and a catch-up replay, folding the identical resent
// flows in the identical order, lands on the identical chain (DESIGN.md
// §13).
const frameChainSeed = uint64(14695981039346656037)

// DelayFunc is the transport's latency-injection seam: when non-nil a
// worker calls it once per non-empty (src, dst, round) flow, after the
// flow's chunks are queued and before its end marker, with the flow's
// logical frame bytes (shard.LogicalFrameBytes — what the cluster ledger
// prices). A hook may sleep (netem-style link simulation) but must not
// mutate run state: the round barrier makes the execution independent of
// timing, so a delay can slow a run but never change its bytes.
type DelayFunc func(src, dst, round, frameBytes int)

// Worker is the worker-side endpoint of the cluster protocol: a
// dist.Engine whose Run participates in one coordinated run over a
// connection instead of driving rounds itself. It holds the full graph and
// the full shard assignment, steps only the nodes the hello's shard index
// assigns to it, streams its cross-shard sends to their owners over the
// worker mesh, and replays what it receives through ghost programs so its
// local delivery is byte-identical to the global execution (see the
// package comment for the argument).
//
// The in-process Engine constructs Workers itself. cmd/cluster uses one
// directly: read the hello with ReadHello, resolve graph/partition/
// protocol from its spec strings, set Hello and the mesh endpoints, and
// hand the Worker to a protocol driver (core.RunDistributed,
// densest.RunWeakDistributed) as its engine. The returned Metrics carry
// this shard's share of Messages/Words/WireBytes and the coordinator's
// run-level Rounds/Halted.
type Worker struct {
	// Hello is the pre-read handshake record; when nil, Run reads it from
	// the connection as its first act.
	Hello *codec.Hello
	// Delay, when non-nil, runs once per non-empty outgoing flow per round
	// (see DelayFunc).
	Delay DelayFunc
	// Part is the partitioner that produced the worker's assignment. It is
	// only consulted when the hello announces a churn batch (DeltaDigest ≠
	// 0): the worker must rerun the identical incremental Rebalance the
	// coordinator ran to land on the pinned partition digest. A churn run
	// without it is a protocol error.
	Part shard.Partitioner
	// Trace, when set, records this worker's per-round timeline: step, send
	// (streaming the round's flows), barrier-wait (done flushed → release
	// record arrives), recv (awaiting every inbound flow) and deliver
	// spans, all under the worker's shard index.
	Trace *obs.Tracer
	// Kill, when non-nil, is the fault-injection hook (KillFunc): consulted
	// at every phase boundary of the round loop, a true return crashes the
	// worker — connections closed, no error record, Run dies with ErrKilled.
	Kill KillFunc

	// Mesh endpoints (DESIGN.md §14). MeshDial opens a raw connection to a
	// peer's mesh endpoint; MeshAccept blocks for the next inbound one (and
	// must error out once MeshClose runs); MeshGen is this incarnation's
	// generation — 0 initially, +1 per respawn, so peers prefer the newest
	// link. LocalMesh.Join sets all four for in-process workers.
	MeshDial   func(dst int) (net.Conn, error)
	MeshAccept func() (net.Conn, error)
	MeshClose  func()
	MeshGen    int
	// ChunkBytes overrides the streaming chunk flush threshold (0 means
	// shard.DefaultChunkBytes). Every incarnation of every worker must use
	// the same value: recovery re-steps re-produce the identical chunking.
	ChunkBytes int
	// IOTimeout bounds mesh formation, flush barriers and — without
	// recovery — the receive barrier (0 means wait forever).
	IOTimeout time.Duration

	c      *Conn
	g      *graph.Graph
	assign []int
	lam    quantize.Lambda
	st     *workerState
	mesh   *mesh
}

// NewWorker returns a worker endpoint over c for a run on g partitioned by
// assign. The shard this worker owns arrives in the coordinator's hello;
// when that hello announces churn, g and assign are the *pre-churn* inputs
// and the worker mutates and rebalances them itself from the delta record
// (set Part so it can).
func NewWorker(c *Conn, g *graph.Graph, assign []int) *Worker {
	return &Worker{c: c, g: g, assign: assign, st: &workerState{}}
}

// workerState is the slice of worker state that must survive the value
// copies WithWireLambda hands to protocol drivers: the copy's run records
// here which assignment the run actually executed on (the rebalanced one
// under churn), so the caller's SendValues ships the right nodes.
type workerState struct {
	assign []int
}

// WithWireLambda implements dist.Engine; protocol drivers call it with the
// Λ the protocol rounds to, which the handshake then verifies against the
// coordinator's.
func (w *Worker) WithWireLambda(lam quantize.Lambda) dist.Engine {
	cp := *w
	cp.lam = lam
	return &cp
}

// Name identifies the engine in experiment tables.
func (w *Worker) Name() string { return "net-worker" }

// Run implements dist.Engine. It performs the handshake (unless Hello was
// pre-read), forms the mesh and serves rounds until the coordinator
// finishes the run. Any connection failure or protocol violation panics
// after a best-effort error record to the coordinator; cmd/cluster's worker
// recovers the panic into an exit status. When the hello armed Recover
// (DESIGN.md §13), the worker additionally checkpoints its driver state
// after every delivery and — in a respawned incarnation — honors the
// coordinator's resume/replay records to rejoin the run at the exact sealed
// barrier; worker death is then the coordinator's problem, not the run's.
func (w *Worker) Run(g *graph.Graph, factory dist.Factory, maxRounds int) dist.Metrics {
	met, err := w.run(g, factory, maxRounds)
	if err != nil {
		if errors.Is(err, ErrKilled) {
			// A fault-injected crash: the connection is already closed and a
			// dead process would send nothing. Panic with the sentinel value
			// so engine goroutine wrappers can recognize it.
			panic(err)
		}
		w.c.SendError(err)
		panic("net: worker: " + err.Error())
	}
	return met
}

// killed consults the fault-injection hook and, on a hit, crashes the
// worker: the connection closes mid-protocol and the caller returns
// ErrKilled.
func (w *Worker) killed(phase obs.Phase, round int) bool {
	if w.Kill != nil && w.Kill(phase, round) {
		w.c.Close()
		if w.mesh != nil {
			// A dead process takes its mesh connections with it; closing
			// them is what lets the peers observe the death.
			w.mesh.Close()
		}
		return true
	}
	return false
}

// replayMsg is one decoded cross-shard message awaiting ghost replay.
type replayMsg struct {
	to graph.NodeID
	m  dist.Message
}

// ghost is the stand-in Program for every node owned by another worker: it
// never acts on its own, only re-issues (in original send order) the
// messages the real remote node sent this round, as decoded from the
// received chunks. Sending through the ordinary Ctx is what slots the
// remote traffic into the local Driver's deterministic delivery order.
type ghost struct {
	pending [][]replayMsg
}

func (gh *ghost) Init(c *dist.Ctx)                    { gh.replay(c) }
func (gh *ghost) Round(c *dist.Ctx, _ []dist.Message) { gh.replay(c) }

func (gh *ghost) replay(c *dist.Ctx) {
	for _, r := range gh.pending[c.ID()] {
		c.Send(r.to, r.m)
	}
}

func (w *Worker) run(g *graph.Graph, factory dist.Factory, maxRounds int) (dist.Metrics, error) {
	h := w.Hello
	if h == nil {
		var err error
		if h, err = ReadHello(w.c); err != nil {
			return dist.Metrics{}, err
		}
		// Keep the handshake on the receiver so a later SendValues works in
		// this flow too, not only when the caller pre-read the hello.
		w.Hello = h
	}
	lam := w.lam
	if lam == nil {
		lam = quantize.Reals{}
	}
	n := g.N()
	switch {
	case h.Version != codec.HandshakeVersion:
		return dist.Metrics{}, fmt.Errorf("net: handshake version %d, want %d", h.Version, codec.HandshakeVersion)
	case h.P < 1 || h.Shard < 0 || h.Shard >= h.P:
		return dist.Metrics{}, fmt.Errorf("net: bad shard index %d of %d", h.Shard, h.P)
	case len(w.assign) != n:
		return dist.Metrics{}, fmt.Errorf("net: assignment covers %d nodes, graph has %d", len(w.assign), n)
	case h.MaxRounds != maxRounds:
		return dist.Metrics{}, fmt.Errorf("net: round budget mismatch (coordinator %d, worker %d)", h.MaxRounds, maxRounds)
	}
	if err := lambdaMatches(h, lam); err != nil {
		return dist.Metrics{}, err
	}
	assign := w.assign
	if h.DeltaDigest != 0 {
		// Churn run (DESIGN.md §9): the delta record follows the hello.
		// Apply it to the pre-churn graph and rerun the coordinator's
		// incremental rebalance; the hello's GraphHash/PartDigest pin the
		// *results*, so the two digest checks below cover the pre-churn
		// inputs, the batch itself (DeltaDigest) and the application order
		// all at once.
		typ, body, err := w.c.readRecord()
		if err != nil {
			return dist.Metrics{}, fmt.Errorf("net: reading delta: %w", err)
		}
		if typ == recError {
			return dist.Metrics{}, fmt.Errorf("net: coordinator aborted: %s", body)
		}
		if typ != recDelta {
			return dist.Metrics{}, fmt.Errorf("net: expected delta record after churn hello, got type %d", typ)
		}
		if w.Part == nil {
			return dist.Metrics{}, fmt.Errorf("net: churn hello but worker has no partitioner for the rebalance")
		}
		budget, delta, used, err := shard.DecodeDelta(body)
		if err != nil {
			return dist.Metrics{}, err
		}
		if used != len(body) {
			return dist.Metrics{}, fmt.Errorf("net: delta record carries %d trailing bytes", len(body)-used)
		}
		if dg := delta.Digest(); dg != h.DeltaDigest {
			return dist.Metrics{}, fmt.Errorf("net: delta digest mismatch (hello %#x, record %#x)", h.DeltaDigest, dg)
		}
		if g, err = delta.Apply(g); err != nil {
			return dist.Metrics{}, fmt.Errorf("net: applying delta: %w", err)
		}
		// Lean rebalance: the churn ledger lives coordinator-side, so the
		// worker skips the metric cut scans.
		assign = shard.RebalanceAssign(w.Part, g, h.P, assign, delta, budget)
	}
	switch {
	case h.GraphHash != g.Fingerprint():
		return dist.Metrics{}, fmt.Errorf("net: graph fingerprint mismatch (coordinator %#x, worker %#x)", h.GraphHash, g.Fingerprint())
	case h.PartDigest != shard.PartitionDigest(assign):
		return dist.Metrics{}, fmt.Errorf("net: partition digest mismatch (coordinator %#x, worker %#x)", h.PartDigest, shard.PartitionDigest(assign))
	}
	if w.st != nil {
		w.st.assign = assign
	}

	var local []graph.NodeID // ascending — the shard's step order
	for v := 0; v < n; v++ {
		if assign[v] == h.Shard {
			local = append(local, v)
		}
	}
	gh := &ghost{pending: make([][]replayMsg, n)}
	d := dist.NewDriver(g, lam, func(v graph.NodeID) dist.Program {
		if assign[v] == h.Shard {
			return factory(v)
		}
		return gh
	})
	return w.serveRounds(h, lam, d, gh, local, assign)
}

// serveRounds is the worker's round loop (DESIGN.md §14): cross-shard sends
// stream straight to their destination workers over the mesh as the local
// step produces them, and the coordinator connection carries only barrier
// records — done (with per-peer sent digests), the release, the ack (with
// per-peer received digests), checkpoints. The mesh forms before the
// welcome is sent, so "welcomed" means "reachable by peers".
func (w *Worker) serveRounds(h *codec.Hello, lam quantize.Lambda, d *dist.Driver,
	gh *ghost, local []graph.NodeID, assign []int) (dist.Metrics, error) {
	p, n := h.P, len(assign)
	if w.MeshDial == nil || w.MeshAccept == nil {
		return dist.Metrics{}, fmt.Errorf("net: worker %d has no mesh endpoints", h.Shard)
	}
	if h.MeshKind != codec.MeshFull && h.MeshKind != codec.MeshCube {
		return dist.Metrics{}, fmt.Errorf("net: unknown mesh kind %d", h.MeshKind)
	}
	if h.MeshKind == codec.MeshCube && p&(p-1) != 0 {
		return dist.Metrics{}, fmt.Errorf("net: hypercube mesh needs a power-of-two P, got %d", p)
	}

	// Decoded Vec payloads live exactly one round, but chunks of round t can
	// arrive while round t-1's vectors are still feeding local hooks — so the
	// arenas double-buffer by round parity: slot t%2 is reset at
	// beginRound(t), when its round t-2 tenants are provably dead. One arena
	// pair per source keeps each reader goroutine's decodes disjoint.
	// CheckVecAliasing re-hashes delivered Vecs one delivery later, so under
	// the checker every Vec gets a fresh allocation instead.
	var arenas [][2]*shard.VecArena
	if !dist.CheckVecAliasing {
		arenas = make([][2]*shard.VecArena, p)
		for i := range arenas {
			arenas[i][0], arenas[i][1] = new(shard.VecArena), new(shard.VecArena)
		}
	}
	// senders and gh.pending are written by mesh readers (under the mesh
	// mutex) and consumed by this goroutine strictly after waitComplete —
	// which acquires the same mutex, ordering the accesses.
	var senders []graph.NodeID
	deliver := func(src, round int, body []byte, count int) error {
		var ar *shard.VecArena
		if arenas != nil {
			ar = arenas[src][round&1]
		}
		cnt := 0
		for len(body) > 0 {
			to, msg, used, err := shard.DecodeMessage(body, lam, ar)
			if err != nil {
				return err
			}
			body = body[used:]
			u := msg.From
			if u < 0 || u >= n || assign[u] != src {
				return fmt.Errorf("net: chunk %d→%d carries sender %d not owned by shard %d", src, h.Shard, u, src)
			}
			if to < 0 || to >= n || assign[to] != h.Shard {
				return fmt.Errorf("net: chunk %d→%d addresses node %d outside shard %d", src, h.Shard, to, h.Shard)
			}
			if len(gh.pending[u]) == 0 {
				senders = append(senders, u)
			}
			gh.pending[u] = append(gh.pending[u], replayMsg{to: to, m: msg})
			cnt++
		}
		if cnt != count {
			return fmt.Errorf("net: chunk %d→%d decoded %d messages, header says %d", src, h.Shard, cnt, count)
		}
		return nil
	}

	m := newMesh(meshConfig{
		Self: h.Shard, P: p, Kind: h.MeshKind, Gen: w.MeshGen,
		Recover: h.Recover, Timeout: w.IOTimeout,
		Dial: w.MeshDial, Accept: w.MeshAccept, CloseAccept: w.MeshClose,
		Deliver: deliver,
	})
	w.mesh = m
	defer func() {
		// Drop the mesh with the run: its links, retention rings and arenas
		// must not stay reachable from a Worker that outlives the run (a
		// session worker keeps serving epochs on the same connection).
		m.Close()
		w.mesh = nil
	}()
	if err := m.form(); err != nil {
		return dist.Metrics{}, err
	}

	if err := w.c.writeRecord(recWelcome, codec.AppendWelcome(nil, codec.Welcome{
		Version:    codec.HandshakeVersion,
		Shard:      h.Shard,
		GraphHash:  h.GraphHash,
		PartDigest: h.PartDigest,
		Nodes:      len(local),
	})); err != nil {
		return dist.Metrics{}, err
	}
	if err := w.c.flush(); err != nil {
		return dist.Metrics{}, err
	}

	chunk := w.ChunkBytes
	if chunk <= 0 {
		chunk = shard.DefaultChunkBytes
	}
	streams := make([]*shard.PeerStream, p)
	for q := 0; q < p; q++ {
		if q == h.Shard {
			continue
		}
		q := q
		streams[q] = &shard.PeerStream{Lam: lam, Limit: chunk,
			Flush: func(body []byte, count int) error { return m.sendChunk(q, body, count) }}
	}

	var mMsgs, mWords, mWire int64
	chain := frameChainSeed
	curRound := -1
	// bw is the round's pending barrier-wait span: begun once the done
	// record is flushed, ended when the coordinator's release arrives — the
	// time this worker spends parked at the barrier.
	var bw obs.SpanRef

	onNewRound := func(t int) func() {
		if arenas == nil {
			return nil
		}
		return func() {
			for i := range arenas {
				arenas[i][t&1].Reset()
			}
		}
	}

	// stepRound runs the local half of round t: step hooks, tap sends into
	// the per-peer streams (suppressed during catch-up replay — the peers
	// already hold this incarnation's predecessors' bytes), end every flow,
	// drain the mesh writers, and report done. The flow ledger prices
	// logical frame bytes (one shard-engine header plus bodies per nonempty
	// flow), which is what keeps ClusterMetrics bit-equal to ShardMetrics.
	stepRound := func(t int, suppress bool) error {
		curRound = t
		if err := m.beginRound(t, onNewRound(t)); err != nil {
			return err
		}
		sp := w.Trace.Begin(obs.PhaseStep, t, h.Shard)
		for _, v := range local {
			d.Step(v, t)
		}
		sp.EndN(0, int64(len(local)))
		if !suppress && w.killed(obs.PhaseSend, t) {
			return ErrKilled
		}
		sn := w.Trace.Begin(obs.PhaseSend, t, h.Shard)
		var serr error
		for _, v := range local {
			d.Sends(v, func(to graph.NodeID, msg dist.Message) {
				mMsgs++
				mWords += int64(msg.Words())
				mWire += int64(dist.WireSize(lam, msg))
				if q := assign[to]; q != h.Shard && !suppress && serr == nil {
					serr = streams[q].Append(to, msg)
				}
			})
			if serr != nil {
				return serr
			}
		}
		if suppress {
			sn.End()
			return nil
		}
		ents := make([]codec.PeerDigest, 0, p-1)
		var logicalBytes, logicalMsgs int64
		for q := 0; q < p; q++ {
			if q == h.Shard {
				continue
			}
			ps := streams[q]
			if err := ps.Finish(); err != nil {
				return err
			}
			lb := shard.LogicalFrameBytes(h.Shard, q, t, ps.Msgs, ps.BodyBytes)
			if w.Delay != nil && lb > 0 {
				w.Delay(h.Shard, q, t, int(lb))
			}
			e, err := m.sendEnd(q, int64(ps.Msgs), lb)
			if err != nil {
				return err
			}
			ents = append(ents, e)
			logicalBytes += lb
			logicalMsgs += int64(ps.Msgs)
			ps.Reset()
		}
		// Drain the writers before done: "done received" must mean "this
		// worker's chunks are on the wire", or a death right after done
		// could strand peers waiting on flows nobody will resend for it.
		if err := m.barrier(); err != nil {
			return err
		}
		sn.EndN(logicalBytes, logicalMsgs)
		alive := 0
		for _, v := range local {
			if !d.Halted(v) {
				alive++
			}
		}
		if err := w.c.writeRecord(recStreamDone, codec.AppendStreamDone(nil,
			codec.StreamDone{Round: t, Alive: alive, Sent: ents})); err != nil {
			return err
		}
		if err := w.c.flush(); err != nil {
			return err
		}
		if w.killed(obs.PhaseBarrierWait, t) {
			return ErrKilled
		}
		bw = w.Trace.Begin(obs.PhaseBarrierWait, t, h.Shard)
		return nil
	}

	// completeRound runs the receive half: await every inbound flow's end
	// marker, deliver in the global deterministic order (ascending sender,
	// ties in send order), checkpoint (before the ack — an acked round is
	// always restorable), then ack with the received digests and wire
	// counters.
	completeRound := func(t int, ack bool) error {
		if w.killed(obs.PhaseRecv, t) {
			return ErrKilled
		}
		rv := w.Trace.Begin(obs.PhaseRecv, t, h.Shard)
		ents, roundDig, err := m.waitComplete(t)
		if err != nil {
			return err
		}
		var rb, rc int64
		for _, e := range ents {
			rb += e.Bytes
			rc += int64(e.Chunks)
		}
		rv.EndN(rb, rc)
		if w.killed(obs.PhaseDeliver, t) {
			return ErrKilled
		}
		dl := w.Trace.Begin(obs.PhaseDeliver, t, h.Shard)
		for _, u := range senders {
			d.Step(u, t)
			gh.pending[u] = gh.pending[u][:0]
		}
		senders = senders[:0]
		d.Deliver(nil)
		dl.End()
		chain = foldU64(chain, roundDig)
		if h.Recover {
			st, err := d.AppendSnapshot(nil, local)
			if err != nil {
				return err
			}
			if err := w.c.writeRecord(recCheckpoint, codec.AppendCheckpoint(nil, codec.Checkpoint{
				Round: t, FrameChain: chain,
				Msgs: mMsgs, Words: mWords, Wire: mWire, State: st,
			})); err != nil {
				return err
			}
		}
		if ack {
			if err := w.c.writeRecord(recStreamAck, codec.AppendStreamAck(nil,
				codec.StreamAck{Round: t, Wire: m.wireSnapshot(), Recv: ents})); err != nil {
				return err
			}
		}
		return w.c.flush()
	}

	for {
		typ, body, err := w.c.readRecord()
		if err != nil {
			return dist.Metrics{}, fmt.Errorf("net: worker read: %w", err)
		}
		switch typ {
		case recStep:
			t, k := binary.Uvarint(body)
			if k <= 0 {
				return dist.Metrics{}, fmt.Errorf("net: truncated step record")
			}
			if w.killed(obs.PhaseStep, int(t)) {
				return dist.Metrics{}, ErrKilled
			}
			if err := stepRound(int(t), false); err != nil {
				return dist.Metrics{}, err
			}

		case recRelease:
			// The barrier release: all P dones are in, receive and deliver.
			t, k := binary.Uvarint(body)
			if k <= 0 {
				return dist.Metrics{}, fmt.Errorf("net: truncated release record")
			}
			if int(t) != curRound {
				return dist.Metrics{}, fmt.Errorf("net: release for round %d but worker is at %d", t, curRound)
			}
			bw.End()
			bw = obs.SpanRef{}
			if err := completeRound(int(t), true); err != nil {
				return dist.Metrics{}, err
			}

		case recStreamResend:
			// Re-feed a respawned peer: replay the retained records of
			// rounds [from, to] toward its new incarnation, verbatim.
			dd := 0
			var vals [4]uint64 // target, from, to, generation
			for j := range vals {
				u, k := binary.Uvarint(body[dd:])
				if k <= 0 {
					return dist.Metrics{}, fmt.Errorf("net: truncated resend record")
				}
				vals[j] = u
				dd += k
			}
			if err := m.resend(int(vals[0]), int(vals[1]), int(vals[2]), int(vals[3])); err != nil {
				return dist.Metrics{}, err
			}

		case recResume:
			// Re-admission (DESIGN.md §13): restore the driver to the last
			// retained checkpoint — or to the fresh pre-Init state when no
			// round was sealed before the crash — then expect Catchup replay
			// records.
			rs, used, err := codec.DecodeResume(body)
			if err != nil {
				return dist.Metrics{}, err
			}
			if used != len(body) {
				return dist.Metrics{}, fmt.Errorf("net: resume record carries %d trailing bytes", len(body)-used)
			}
			if rs.CkptRound >= 0 {
				if err := d.RestoreSnapshot(rs.State, local); err != nil {
					return dist.Metrics{}, err
				}
				curRound = rs.CkptRound
				chain = rs.FrameChain
				mMsgs, mWords, mWire = rs.Msgs, rs.Words, rs.Wire
			} else {
				curRound = -1
				chain = frameChainSeed
				mMsgs, mWords, mWire = 0, 0, 0
			}

		case recStreamReplay:
			// One catch-up round: re-step with sends suppressed (the peers
			// already received the dead incarnation's identical bytes),
			// absorb the resent inbound flows, deliver, re-checkpoint.
			rp, used, err := codec.DecodeReplay(body)
			if err != nil {
				return dist.Metrics{}, err
			}
			if used != len(body) {
				return dist.Metrics{}, fmt.Errorf("net: replay record carries %d trailing bytes", len(body)-used)
			}
			if rp.Round != curRound+1 {
				return dist.Metrics{}, fmt.Errorf("net: replay of round %d but worker is at round %d", rp.Round, curRound)
			}
			if err := stepRound(rp.Round, true); err != nil {
				return dist.Metrics{}, err
			}
			if err := completeRound(rp.Round, false); err != nil {
				return dist.Metrics{}, err
			}

		case recFinish:
			rounds, k := binary.Uvarint(body)
			if k <= 0 || len(body) <= k {
				return dist.Metrics{}, fmt.Errorf("net: truncated finish record")
			}
			halted := body[k] != 0
			enc := binary.AppendUvarint(nil, uint64(mMsgs))
			enc = binary.AppendUvarint(enc, uint64(mWords))
			enc = binary.AppendUvarint(enc, uint64(mWire))
			if err := w.c.writeRecord(recMetrics, enc); err != nil {
				return dist.Metrics{}, err
			}
			if err := w.c.flush(); err != nil {
				return dist.Metrics{}, err
			}
			return dist.Metrics{
				Rounds:    int(rounds),
				Messages:  mMsgs,
				Words:     mWords,
				WireBytes: mWire,
				Halted:    halted,
			}, nil

		case recError:
			return dist.Metrics{}, fmt.Errorf("net: coordinator aborted: %s", body)

		default:
			return dist.Metrics{}, fmt.Errorf("net: unexpected record type %d at worker", typ)
		}
	}
}

// SendValues ships the values of this worker's local nodes (vals is the
// run-global n-sized result vector, e.g. the surviving numbers; remote
// entries are ignored) as exact float bit patterns. Call it after the run,
// when the coordinator's Spec asked WantValues; the coordinator reassembles
// the global vector from all shards' records.
func (w *Worker) SendValues(vals []float64) error {
	if w.Hello == nil {
		return fmt.Errorf("net: SendValues before handshake")
	}
	// Under churn the run executed on the rebalanced assignment, which the
	// run recorded in the shared worker state; ship the nodes the run
	// actually owned, not the stale pre-churn shard.
	assign := w.assign
	if w.st != nil && w.st.assign != nil {
		assign = w.st.assign
	}
	cnt := 0
	for v := range vals {
		if assign[v] == w.Hello.Shard {
			cnt++
		}
	}
	enc := binary.AppendUvarint(nil, uint64(cnt))
	for v, x := range vals {
		if assign[v] == w.Hello.Shard {
			enc = binary.AppendUvarint(enc, uint64(v))
			enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(x))
		}
	}
	if err := w.c.writeRecord(recValues, enc); err != nil {
		return err
	}
	return w.c.flush()
}
