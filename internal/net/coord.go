package net

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/obs"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// Spec describes one coordinated run: the fan-out, the pinned inputs every
// worker must prove it shares (graph fingerprint, partition digest,
// threshold set, round budget) and — for workers in separate processes —
// the spec strings they resolve those inputs from. The zero spec strings
// mean "the worker already holds the inputs" (the in-process engine).
type Spec struct {
	P          int
	MaxRounds  int
	Lam        quantize.Lambda
	GraphHash  uint64
	PartDigest uint64
	GraphSpec  string // e.g. "ba:10000:7" (cliutil.LoadGraphSpec); empty in-process
	PartName   string // partitioner name for Partition(g, P); empty in-process
	ProtoSpec  string // e.g. "coreness:23"; empty in-process
	WantValues bool   // collect per-node result values after the metrics records
	// Delta, when non-empty, is the churn batch of the run (DESIGN.md §9):
	// the coordinator ships it to every worker right after the hello, each
	// worker applies it to its pre-churn graph and rebalances its stale
	// assignment under MoveBudget (≤ 0 means the whole frontier may move).
	// GraphHash and PartDigest must then pin the post-churn graph and the
	// rebalanced assignment — the run executes on those.
	Delta      dist.GraphDelta
	MoveBudget int
	// IOTimeout, when non-zero, bounds every wait on a worker reply: a
	// worker that stays silent for longer fails the run with a timeout
	// error instead of hanging the coordinator forever (fail-fast, the
	// deadline side of "determinism over availability").
	IOTimeout time.Duration
	// Recover arms crash recovery (DESIGN.md §13): workers checkpoint
	// after every delivery, the coordinator retains the last retainRounds
	// checkpoints and digest chains per worker, the workers retain their
	// sent flows, and a dead worker is respawned via Respawn and restored
	// instead of failing the run.
	Recover bool
	// Respawn produces a fresh connection to a restarted worker for the
	// given shard: in-process clusters use Cluster.Respawn (a goroutine on a
	// fresh pipe), cmd/cluster re-execs the worker binary on the shard's
	// address.
	// Recovery requires it; a nil Respawn with Recover set fails the run on
	// the first death, exactly as if recovery were off. The new
	// incarnation's mesh generation (Worker.MeshGen) must equal the number
	// of Respawn calls performed for the shard, so the coordinator can name
	// the incarnation in resend instructions.
	Respawn func(shard int) (*Conn, error)
	// OnRound, when non-nil, runs at the top of every round before the
	// step broadcast — the fault-injection seam multi-process harnesses use
	// to SIGKILL a worker at a chosen round.
	OnRound func(t int)
	// MeshThreshold is the P at or above which the run uses the hypercube
	// relay topology instead of the full mesh (power-of-two P only; ≤ 0
	// means the default of 16). Recovery forces the full mesh — resends
	// need a direct path that a relay hop's death cannot sever.
	MeshThreshold int
	// MeshSpec names the workers' listen addresses for multi-process runs
	// (comma-joined, indexed by shard; see Listener); empty in-process.
	MeshSpec string
	// Trace, when set, records the coordinator's per-round barrier-wait and
	// verify spans plus one Flow per non-empty flow — the P×P traffic
	// matrix. It observes bytes the ledger already prices, so a traced run
	// is byte-identical to an untraced one.
	Trace *obs.Tracer
}

// NodeValue is one node's result value as shipped by a worker — the exact
// float bit pattern, so cross-process verification can demand bit equality.
type NodeValue struct {
	Node graph.NodeID
	Bits uint64
}

// Report is the cluster-level outcome of one coordinated run — what
// dist.Metrics cannot see because it depends on where nodes live.
type Report struct {
	// Sharding is the frame-traffic ledger, in the sharded engine's units
	// (CrossFrameBytes counts header+body, exactly what Engine.ShardMetrics
	// of internal/shard would report for the same run). EdgeCutFraction is
	// left zero — the coordinator does not need the graph; callers that
	// hold it fill the field via shard.CutFraction.
	Sharding shard.ShardMetrics
	// Nodes is the sum of the workers' shard sizes (a handshake sanity
	// datum for callers that know n).
	Nodes int
	// Values holds every worker's shipped node values when Spec.WantValues
	// was set, in arrival order; nil otherwise.
	Values []NodeValue
	// Recoveries counts worker crash recoveries performed during the run
	// (0 when recovery is disabled or nothing died).
	Recoveries int
	// StreamWire holds each worker's cumulative mesh wire counters as of
	// its last acked round. It is observability, not protocol: the quantity
	// that must stay ~flat per worker as P grows.
	StreamWire []codec.StreamWire
}

// Assemble scatters the collected values into an n-sized vector (missing
// nodes stay zero, duplicates and out-of-range nodes error).
func (r *Report) Assemble(n int) ([]float64, error) {
	out := make([]float64, n)
	seen := make([]bool, n)
	for _, v := range r.Values {
		if v.Node < 0 || v.Node >= n {
			return nil, fmt.Errorf("net: worker shipped value for node %d of %d", v.Node, n)
		}
		if seen[v.Node] {
			return nil, fmt.Errorf("net: two workers shipped node %d", v.Node)
		}
		seen[v.Node] = true
		out[v.Node] = math.Float64frombits(v.Bits)
	}
	return out, nil
}

// RunCoordinator drives one full run over P established worker
// connections: handshake, per-round barrier (step → done → release → ack),
// finish, metric aggregation. conns[i] becomes shard i. It returns the
// run-level Metrics — byte-identical to dist.SeqEngine's for the same
// protocol, graph and Λ — plus the cluster Report.
//
// Failure behavior (DESIGN.md §8): the protocol chooses determinism over
// availability. Any connection error, version skew, digest mismatch or
// protocol violation aborts the whole run with an error after best-effort
// error records to the surviving workers; there is no retry, reconnect or
// partial result unless Spec.Recover arms crash recovery. Spec.IOTimeout
// (or deadlines set on the conns) makes a dead worker fail fast instead of
// hanging the coordinator. The caller owns the connections and closes them
// afterwards; together with the hub teardown that releases channel-blocked
// readers, that terminates the reader goroutines this call spawns. To keep
// the workers alive for more exchanges after the run — a session — build a
// Hub yourself and call its Run; this wrapper tears the hub down when the
// run ends.
func RunCoordinator(conns []*Conn, spec Spec) (dist.Metrics, *Report, error) {
	h := NewHub(conns)
	defer h.Close()
	return h.Run(spec)
}

// Run drives one coordinated run over the hub's connections (see
// RunCoordinator). The hub stays usable afterwards: readers keep pumping,
// so a session layer can continue with epoch exchanges on the same
// connections.
func (h *Hub) Run(spec Spec) (dist.Metrics, *Report, error) {
	p := len(h.conns)
	if p == 0 || (spec.P != 0 && spec.P != p) {
		return dist.Metrics{}, nil, fmt.Errorf("net: %d connections for P=%d", p, spec.P)
	}
	if spec.IOTimeout > 0 && h.Timeout == 0 {
		h.Timeout = spec.IOTimeout
	}
	c := &coordinator{
		hub:  h,
		spec: spec,
		rep: &Report{
			Sharding:   shard.ShardMetrics{P: p, PerShardBytes: make([]int64, p)},
			StreamWire: make([]codec.StreamWire, p),
		},
	}
	if spec.Recover {
		c.hellos = make([][]byte, p)
		c.ckpts = make([][]codec.Checkpoint, p)
		c.hist = make([][]histRound, p)
		c.chains = make([]uint64, p)
		for i := range c.chains {
			c.chains[i] = frameChainSeed
		}
		// Checkpoints are absorbed into the retention rings as they arrive,
		// before any exchange (or a recovery's stash) sees them.
		h.absorb = c.absorb
		defer func() { h.absorb = nil }()
	}
	met, err := c.run()
	if err != nil {
		h.SendError(err)
		return dist.Metrics{}, nil, err
	}
	return met, c.rep, nil
}

// histRound is one retained round of a worker's expected frame chain: the
// chain the worker's checkpoint for that round must carry (checkpoint
// verification, catch-up replay).
type histRound struct {
	round      int
	chainAfter uint64
}

type coordinator struct {
	hub  *Hub
	spec Spec
	rep  *Report

	// Recovery retention (allocated when spec.Recover; nil otherwise).
	hellos   [][]byte             // original hello record body per worker
	deltaRec []byte               // original churn delta record, if any
	ckpts    [][]codec.Checkpoint // last K checkpoints per worker, ascending rounds
	hist     [][]histRound        // last K expected frame chains per worker
	chains   []uint64             // cumulative frame chain per worker
}

// recoverable reports whether worker death is survivable in this run.
func (c *coordinator) recoverable() bool { return c.spec.Recover && c.spec.Respawn != nil }

// retainRounds is K, the retention depth of checkpoints, digest chains and
// sent flows: a worker's checkpoint lag is at most 2 rounds, so 4 leaves
// slack.
const retainRounds = 4

// absorb is the hub's absorb hook under recovery: it takes checkpoint
// records into the retention rings and leaves everything else alone.
func (c *coordinator) absorb(r inRec) (bool, error) {
	if r.typ != recCheckpoint {
		return false, nil
	}
	return true, c.absorbCheckpoint(r)
}

// absorbCheckpoint stores one worker checkpoint in the retention ring,
// verifying its frame chain against the digest chain the coordinator
// derived from the senders' done records when the round is still retained.
// A catch-up re-checkpoint supersedes ring entries at or past its round
// (they were the dead incarnation's).
func (c *coordinator) absorbCheckpoint(r inRec) error {
	ck, used, err := codec.DecodeCheckpoint(r.body)
	if err != nil {
		return err
	}
	if used != len(r.body) {
		return fmt.Errorf("net: worker %d checkpoint carries %d trailing bytes", r.from, len(r.body)-used)
	}
	w := r.from
	for i := range c.hist[w] {
		if c.hist[w][i].round == ck.Round {
			if c.hist[w][i].chainAfter != ck.FrameChain {
				return fmt.Errorf("net: worker %d checkpoint for round %d has frame chain %#x, senders proved %#x",
					w, ck.Round, ck.FrameChain, c.hist[w][i].chainAfter)
			}
			break
		}
	}
	ring := c.ckpts[w]
	for len(ring) > 0 && ring[len(ring)-1].Round >= ck.Round {
		ring = ring[:len(ring)-1]
	}
	ring = append(ring, ck)
	if len(ring) > retainRounds {
		ring = ring[len(ring)-retainRounds:]
	}
	c.ckpts[w] = ring
	return nil
}

// checkWelcome validates one welcome record against the spec (shared by
// the initial handshake and recovery re-admission).
func (c *coordinator) checkWelcome(r inRec) (codec.Welcome, error) {
	if r.typ != recWelcome {
		return codec.Welcome{}, fmt.Errorf("net: worker %d sent record %d before welcome", r.from, r.typ)
	}
	w, _, err := codec.DecodeWelcome(r.body)
	if err != nil {
		return codec.Welcome{}, err
	}
	switch {
	case w.Version != codec.HandshakeVersion:
		return codec.Welcome{}, fmt.Errorf("net: worker %d speaks version %d, want %d", r.from, w.Version, codec.HandshakeVersion)
	case w.Shard != r.from:
		return codec.Welcome{}, fmt.Errorf("net: worker %d answered as shard %d", r.from, w.Shard)
	case w.GraphHash != c.spec.GraphHash || w.PartDigest != c.spec.PartDigest:
		return codec.Welcome{}, fmt.Errorf("net: worker %d echoes mismatched digests", r.from)
	}
	return w, nil
}

func (c *coordinator) run() (dist.Metrics, error) {
	p := c.hub.P()
	kind, lamL, lamName := lambdaFields(c.spec.Lam)
	var deltaRec []byte
	if len(c.spec.Delta.Ops) > 0 {
		deltaRec = shard.AppendDelta(nil, c.spec.MoveBudget, c.spec.Delta)
	}
	for i, cn := range c.hub.conns {
		h := codec.Hello{
			Version:     codec.HandshakeVersion,
			P:           p,
			Shard:       i,
			MaxRounds:   c.spec.MaxRounds,
			GraphHash:   c.spec.GraphHash,
			PartDigest:  c.spec.PartDigest,
			DeltaDigest: c.spec.Delta.Digest(),
			LamKind:     kind,
			LamL:        lamL,
			LamName:     lamName,
			GraphSpec:   c.spec.GraphSpec,
			PartName:    c.spec.PartName,
			ProtoSpec:   c.spec.ProtoSpec,
			WantValues:  c.spec.WantValues,
			Recover:     c.spec.Recover,
			MeshKind:    meshKindFor(p, c.spec.MeshThreshold, c.spec.Recover),
			MeshSpec:    c.spec.MeshSpec,
		}
		helloRec := codec.AppendHello(nil, h)
		if c.spec.Recover {
			// Retain the exact hello (and delta) bytes: re-admitting a
			// respawned worker replays the identical handshake.
			c.hellos[i] = helloRec
			c.deltaRec = deltaRec
		}
		if err := cn.writeRecord(recHello, helloRec); err != nil {
			return dist.Metrics{}, err
		}
		if deltaRec != nil {
			if err := cn.writeRecord(recDelta, deltaRec); err != nil {
				return dist.Metrics{}, err
			}
		}
		if err := cn.flush(); err != nil {
			return dist.Metrics{}, err
		}
	}
	welcomed := make([]bool, p)
	for i := 0; i < p; i++ {
		r, err := c.hub.recv(-1)
		if err != nil {
			return dist.Metrics{}, err
		}
		w, err := c.checkWelcome(r)
		if err != nil {
			return dist.Metrics{}, err
		}
		if welcomed[r.from] {
			return dist.Metrics{}, fmt.Errorf("net: worker %d welcomed twice", r.from)
		}
		welcomed[r.from] = true
		c.rep.Nodes += w.Nodes
	}

	// The round loop mirrors dist.SeqEngine.Run condition for condition:
	// Init is round 0 and always runs; round t runs while t ≤ maxRounds
	// and someone is still alive; Rounds is the last t executed.
	alive, err := c.round(0)
	if err != nil {
		return dist.Metrics{}, err
	}
	rounds := 0
	for t := 1; t <= c.spec.MaxRounds && alive > 0; t++ {
		rounds = t
		if alive, err = c.round(t); err != nil {
			return dist.Metrics{}, err
		}
	}

	fin := binary.AppendUvarint(nil, uint64(rounds))
	if alive == 0 {
		fin = append(fin, 1)
	} else {
		fin = append(fin, 0)
	}
	sendFin := func(i int) error {
		cn := c.hub.conns[i]
		if err := cn.writeRecord(recFinish, fin); err != nil {
			return err
		}
		return cn.flush()
	}
	// A finish-phase restart replays the whole worker flow, so a restarted
	// worker legitimately re-sends records its dead incarnation already
	// delivered; restarted[i] is what lets the dup checks tolerate that.
	restarted := make([]bool, p)
	for i := range c.hub.conns {
		if err := sendFin(i); err != nil {
			// A worker that died after acking the last round surfaces here:
			// recover it through the final round and re-send the finish.
			if !c.recoverable() {
				return dist.Metrics{}, err
			}
			if err := c.restart(i, rounds, rounds); err != nil {
				return dist.Metrics{}, err
			}
			restarted[i] = true
			if err := sendFin(i); err != nil {
				return dist.Metrics{}, err
			}
		}
	}
	met := dist.Metrics{Rounds: rounds, Halted: alive == 0}
	want := p
	if c.spec.WantValues {
		want = 2 * p
	}
	gotMetrics := make([]bool, p)
	gotValues := make([]bool, p)
	// A worker may close its connection as soon as it has shipped its last
	// record, while siblings are still reporting — an EOF from a worker
	// whose records are all in is the normal end, not a failure.
	complete := func(i int) bool {
		return gotMetrics[i] && (!c.spec.WantValues || gotValues[i])
	}
	for got := 0; got < want; {
		r, err := c.hub.recv(-1)
		if err != nil {
			if r.err != nil && r.from >= 0 && complete(r.from) {
				continue
			}
			if c.recoverable() {
				if w := c.hub.Blame(r.from, func(i int) bool { return !complete(i) }); w >= 0 && !complete(w) {
					if err := c.restart(w, rounds, rounds); err != nil {
						return dist.Metrics{}, err
					}
					restarted[w] = true
					if err := sendFin(w); err != nil {
						return dist.Metrics{}, err
					}
					continue
				}
			}
			return dist.Metrics{}, err
		}
		got++
		switch r.typ {
		case recMetrics:
			if gotMetrics[r.from] {
				if restarted[r.from] {
					// The dead incarnation's metrics already counted; the
					// restarted worker's re-send is byte-identical. Drop it
					// without advancing got.
					got--
					continue
				}
				return dist.Metrics{}, fmt.Errorf("net: worker %d reported metrics twice", r.from)
			}
			gotMetrics[r.from] = true
			d := 0
			for _, dst := range []*int64{&met.Messages, &met.Words, &met.WireBytes} {
				u, k := binary.Uvarint(r.body[d:])
				if k <= 0 {
					return dist.Metrics{}, fmt.Errorf("net: worker %d sent a truncated metrics record", r.from)
				}
				*dst += int64(u)
				d += k
			}
		case recValues:
			if !c.spec.WantValues || gotValues[r.from] {
				return dist.Metrics{}, fmt.Errorf("net: worker %d shipped unsolicited values", r.from)
			}
			gotValues[r.from] = true
			cnt, k := binary.Uvarint(r.body)
			if k <= 0 {
				return dist.Metrics{}, fmt.Errorf("net: worker %d sent a truncated values record", r.from)
			}
			d := k
			for j := uint64(0); j < cnt; j++ {
				v, k := binary.Uvarint(r.body[d:])
				d += k
				if k <= 0 || len(r.body[d:]) < 8 {
					return dist.Metrics{}, fmt.Errorf("net: worker %d sent a truncated values record", r.from)
				}
				bits := binary.LittleEndian.Uint64(r.body[d:])
				d += 8
				c.rep.Values = append(c.rep.Values, NodeValue{Node: graph.NodeID(v), Bits: bits})
			}
		default:
			return dist.Metrics{}, fmt.Errorf("net: unexpected record type %d at finish", r.typ)
		}
	}
	for _, b := range c.rep.Sharding.PerShardBytes {
		if b > c.rep.Sharding.MaxShardBytes {
			c.rep.Sharding.MaxShardBytes = b
		}
	}
	return met, nil
}

// defaultMeshThreshold is the P at or above which a run (with recovery off
// and a power-of-two P) switches from the full mesh to the hypercube relay
// topology.
const defaultMeshThreshold = 16

// meshKindFor picks the mesh topology for a run: the hypercube needs a
// power-of-two P at or above the threshold, and recovery forces the full
// mesh — a resend must have a direct path to the respawned worker that no
// relay hop's own death can sever.
func meshKindFor(p, threshold int, recov bool) byte {
	if threshold <= 0 {
		threshold = defaultMeshThreshold
	}
	if !recov && p >= threshold && p&(p-1) == 0 {
		return codec.MeshCube
	}
	return codec.MeshFull
}

// digestFor returns the PeerDigest entry for peer q in a done/ack entry
// list (ascending Peer, self excluded).
func digestFor(ents []codec.PeerDigest, q int) (codec.PeerDigest, error) {
	for _, e := range ents {
		if e.Peer == q {
			return e, nil
		}
	}
	return codec.PeerDigest{}, fmt.Errorf("net: no digest entry for peer %d", q)
}

// round drives one barrier round (DESIGN.md §8.4, §14): step broadcast,
// collect every worker's done record (its per-peer sent digests — the data
// plane runs worker↔worker in the meantime), price the ledger and advance
// the digest chains, release the barrier, then collect every worker's ack
// and verify the digest matrix closes: sent[a][b] == recv[b][a] for every
// pair. The coordinator never sees a frame; the matrix is what proves every
// flow arrived whole and untouched. Returns the number of nodes still alive
// across the cluster after the round.
//
// With recovery armed, a worker death is handled by where it surfaces
// (DESIGN.md §13): before the worker's done, its streamed contribution is a
// prefix the peers' sequence gates will deduplicate — restore through t-1
// and re-step; after its done, its chunks are on the wire (the worker
// barriers its mesh writers before the done record), so the round stands
// and the worker is restored through t once the ack phase ends.
func (c *coordinator) round(t int) (alive int, err error) {
	if c.spec.OnRound != nil {
		c.spec.OnRound(t)
	}
	p := c.hub.P()
	step := binary.AppendUvarint(nil, uint64(t))
	sendStep := func(i int) error {
		cn := c.hub.conns[i] // re-read: a respawn may have swapped it
		if err := cn.writeRecord(recStep, step); err != nil {
			return err
		}
		return cn.flush()
	}
	for i := range c.hub.conns {
		if err := sendStep(i); err != nil {
			if !c.recoverable() {
				return 0, err
			}
			// Dead before stepping round t: restore through t-1 (peers
			// resend the inbound flows of the catch-up rounds and of round
			// t itself), re-step.
			if err := c.restart(i, t-1, t); err != nil {
				return 0, err
			}
			if err := sendStep(i); err != nil {
				return 0, err
			}
		}
	}
	done := make([]bool, p)
	dead := make([]bool, p) // died with round t's contribution standing
	sent := make([][]codec.PeerDigest, p)
	bw := c.spec.Trace.Begin(obs.PhaseBarrierWait, t, -1)
	for dones := 0; dones < p; {
		r, err := c.hub.recv(-1)
		if err != nil {
			if !c.recoverable() {
				return 0, err
			}
			w := c.hub.Blame(r.from, func(i int) bool { return !done[i] })
			if w < 0 {
				return 0, err
			}
			if done[w] {
				// Died after its done: the mesh barrier before the done
				// record means its chunks are on the wire, so the peers can
				// complete the round without it. Restore through t after the
				// ack phase.
				dead[w] = true
				continue
			}
			// Died mid-round: the prefix it streamed is deduplicated by the
			// peers' sequence gates when the restored worker re-streams the
			// identical bytes; nothing to undo — the ledger prices done
			// records, and this worker never sent one.
			if err := c.restart(w, t-1, t); err != nil {
				return 0, err
			}
			if err := sendStep(w); err != nil {
				return 0, err
			}
			continue
		}
		if r.typ != recStreamDone {
			return 0, fmt.Errorf("net: unexpected record type %d from worker %d in round %d", r.typ, r.from, t)
		}
		sd, used, err := codec.DecodeStreamDone(r.body)
		if err != nil {
			return 0, err
		}
		if used != len(r.body) {
			return 0, fmt.Errorf("net: worker %d done record carries %d trailing bytes", r.from, len(r.body)-used)
		}
		if sd.Round != t {
			return 0, fmt.Errorf("net: worker %d done for round %d during round %d", r.from, sd.Round, t)
		}
		if done[r.from] {
			return 0, fmt.Errorf("net: worker %d done twice in round %d", r.from, t)
		}
		if len(sd.Sent) != p-1 {
			return 0, fmt.Errorf("net: worker %d done reports %d flows, want %d", r.from, len(sd.Sent), p-1)
		}
		done[r.from] = true
		sent[r.from] = sd.Sent
		alive += sd.Alive
		dones++
	}
	bw.End()
	// Ledger and trace from the done records: each worker's per-peer logical
	// totals are exactly what the sharded engine prices for the same frames
	// (one frame header plus bodies, nothing for empty flows).
	for w := 0; w < p; w++ {
		for _, e := range sent[w] {
			if e.Peer < 0 || e.Peer >= p || e.Peer == w {
				return 0, fmt.Errorf("net: worker %d done reports flow to %d", w, e.Peer)
			}
			c.rep.Sharding.CrossMessages += e.Msgs
			c.rep.Sharding.CrossFrameBytes += e.Bytes
			c.rep.Sharding.PerShardBytes[w] += e.Bytes
			if e.Msgs > 0 {
				c.spec.Trace.Flow(t, w, e.Peer, e.Bytes, e.Msgs)
			}
		}
	}
	if c.spec.Recover {
		// Advance the per-worker digest chains before releasing anything, so
		// a death during the ack phase can verify catch-up checkpoints.
		c.sealChains(t, sent)
	}
	vf := c.spec.Trace.Begin(obs.PhaseVerify, t, -1)
	release := binary.AppendUvarint(nil, uint64(t))
	for q := range c.hub.conns {
		if dead[q] {
			continue
		}
		cn := c.hub.conns[q]
		werr := cn.writeRecord(recRelease, release)
		if werr == nil {
			werr = cn.flush()
		}
		if werr != nil {
			if !c.recoverable() {
				return 0, werr
			}
			dead[q] = true
		}
	}
	// Collect the acks: every live worker's receive-side digests, which must
	// mirror the senders' entry for entry.
	acked := make([]bool, p)
	owesAck := func(i int) bool { return !acked[i] && !dead[i] }
	var ackBytes, ackFlows int64
	for {
		pending := 0
		for i := 0; i < p; i++ {
			if owesAck(i) {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		r, err := c.hub.recv(-1)
		if err != nil {
			if !c.recoverable() {
				return 0, err
			}
			w := c.hub.Blame(r.from, owesAck)
			if w < 0 {
				return 0, err
			}
			// Died at the receive barrier, the delivery, or just after the
			// ack: its done stood, so restore through t with the rest.
			dead[w] = true
			continue
		}
		if r.typ != recStreamAck {
			return 0, fmt.Errorf("net: unexpected record type %d from worker %d in round %d ack phase", r.typ, r.from, t)
		}
		sa, used, err := codec.DecodeStreamAck(r.body)
		if err != nil {
			return 0, err
		}
		if used != len(r.body) {
			return 0, fmt.Errorf("net: worker %d ack record carries %d trailing bytes", r.from, len(r.body)-used)
		}
		if sa.Round != t {
			return 0, fmt.Errorf("net: worker %d ack for round %d during round %d", r.from, sa.Round, t)
		}
		if acked[r.from] {
			return 0, fmt.Errorf("net: worker %d acked twice in round %d", r.from, t)
		}
		if len(sa.Recv) != p-1 {
			return 0, fmt.Errorf("net: worker %d ack reports %d flows, want %d", r.from, len(sa.Recv), p-1)
		}
		for _, e := range sa.Recv {
			if e.Peer < 0 || e.Peer >= p || e.Peer == r.from {
				return 0, fmt.Errorf("net: worker %d ack reports flow from %d", r.from, e.Peer)
			}
			se, err := digestFor(sent[e.Peer], r.from)
			if err != nil {
				return 0, err
			}
			if se.Chunks != e.Chunks || se.Msgs != e.Msgs || se.Bytes != e.Bytes || se.Digest != e.Digest {
				return 0, fmt.Errorf("net: round %d flow %d→%d mismatch (sent %d chunks %d msgs %d bytes %#x, received %d/%d/%d/%#x)",
					t, e.Peer, r.from, se.Chunks, se.Msgs, se.Bytes, se.Digest, e.Chunks, e.Msgs, e.Bytes, e.Digest)
			}
			ackBytes += e.Bytes
			ackFlows++
		}
		acked[r.from] = true
		c.rep.StreamWire[r.from] = sa.Wire
	}
	vf.EndN(ackBytes, ackFlows)
	for w := range dead {
		if dead[w] {
			if err := c.restart(w, t, t); err != nil {
				return 0, err
			}
		}
	}
	return alive, nil
}

// sealChains advances the per-worker frame chains through round t and
// records them in the retention rings, so checkpoints verify against what
// the senders proved they shipped. Worker w's round digest is the
// ascending-source fold of the flows it received — each equal, by the
// matrix check, to the sender's entry toward w.
func (c *coordinator) sealChains(t int, sent [][]codec.PeerDigest) {
	p := c.hub.P()
	for w := 0; w < p; w++ {
		dig := frameChainSeed
		for q := 0; q < p; q++ {
			if q == w {
				continue
			}
			if e, err := digestFor(sent[q], w); err == nil {
				dig = foldU64(dig, e.Digest)
			}
		}
		c.chains[w] = foldU64(c.chains[w], dig)
		hr := append(c.hist[w], histRound{round: t, chainAfter: c.chains[w]})
		if len(hr) > retainRounds {
			hr = hr[len(hr)-retainRounds:]
		}
		c.hist[w] = hr
	}
}

// restart is the recovery core (DESIGN.md §13.2): respawn worker w,
// re-admit it with the original hello (its new incarnation re-forms the
// mesh before the welcome), instruct every live peer to resend its retained
// flows of rounds (ckpt, resendThrough] toward w, then restore w from its
// newest retained checkpoint at or before upTo and replay rounds
// (ckpt, upTo] — each a re-step with sends suppressed (the peers already
// hold the dead incarnation's identical bytes) that absorbs the resent
// inbound flows and re-checkpoints. resendThrough may exceed upTo by one
// round: a worker that died mid-round t is restored through t-1 but needs
// round t's inbound flows too, since the peers already streamed (and will
// not re-stream) them. When it returns nil the new incarnation holds
// exactly the state the dead one had sealed at the end of round upTo.
func (c *coordinator) restart(w, upTo, resendThrough int) error {
	if !c.recoverable() {
		return fmt.Errorf("net: worker %d died and recovery is not armed", w)
	}
	sp := c.spec.Trace.Begin(obs.PhaseRecover, upTo, w)
	defer sp.End()
	cn, err := c.hub.Respawn(w, c.spec.Respawn)
	if err != nil {
		return err
	}
	if err := cn.writeRecord(recHello, c.hellos[w]); err != nil {
		return fmt.Errorf("net: re-admitting worker %d: %w", w, err)
	}
	if c.deltaRec != nil {
		if err := cn.writeRecord(recDelta, c.deltaRec); err != nil {
			return fmt.Errorf("net: re-admitting worker %d: %w", w, err)
		}
	}
	if err := cn.flush(); err != nil {
		return fmt.Errorf("net: re-admitting worker %d: %w", w, err)
	}
	r, err := c.hub.recv(w)
	if err != nil {
		return fmt.Errorf("net: re-admitting worker %d: %w", w, err)
	}
	if _, err := c.checkWelcome(r); err != nil {
		return err
	}
	// Newest retained checkpoint at or before upTo; -1 restarts from Init.
	ck := -1
	rs := codec.Resume{CkptRound: -1}
	for j := len(c.ckpts[w]) - 1; j >= 0; j-- {
		if cp := c.ckpts[w][j]; cp.Round <= upTo {
			ck = cp.Round
			rs = codec.Resume{CkptRound: cp.Round, FrameChain: cp.FrameChain,
				Msgs: cp.Msgs, Words: cp.Words, Wire: cp.Wire, State: cp.State}
			break
		}
	}
	rs.Catchup = upTo - ck
	if resendThrough > ck {
		// The welcome is in, so w's mesh is formed from its side and every
		// peer's accept of the new links is in flight. The resend record
		// carries w's new mesh generation — which by the Respawn contract is
		// the number of respawns performed for the shard, the hub's count —
		// so each peer waits for that incarnation's link before writing a
		// byte (records to the dead link would drop silently).
		req := binary.AppendUvarint(nil, uint64(w))
		req = binary.AppendUvarint(req, uint64(ck+1))
		req = binary.AppendUvarint(req, uint64(resendThrough))
		req = binary.AppendUvarint(req, uint64(c.hub.attempts[w]))
		for q := range c.hub.conns {
			if q == w {
				continue
			}
			qc := c.hub.conns[q]
			if err := qc.writeRecord(recStreamResend, req); err != nil {
				return fmt.Errorf("net: requesting resend %d→%d: %w", q, w, err)
			}
			if err := qc.flush(); err != nil {
				return fmt.Errorf("net: requesting resend %d→%d: %w", q, w, err)
			}
		}
	}
	if err := cn.writeRecord(recResume, codec.AppendResume(nil, rs)); err != nil {
		return fmt.Errorf("net: resuming worker %d: %w", w, err)
	}
	for t := ck + 1; t <= upTo; t++ {
		rp := c.spec.Trace.Begin(obs.PhaseReplay, t, w)
		if err := cn.writeRecord(recStreamReplay, codec.AppendReplay(nil, codec.Replay{Round: t})); err != nil {
			return fmt.Errorf("net: replaying round %d to worker %d: %w", t, w, err)
		}
		rp.End()
	}
	if err := cn.flush(); err != nil {
		return fmt.Errorf("net: resuming worker %d: %w", w, err)
	}
	c.rep.Recoveries++
	return nil
}
