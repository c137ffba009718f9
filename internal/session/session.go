package session

import (
	"fmt"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	net "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/shard"
)

// Options configures an in-process session.
type Options struct {
	// P is the worker count (required, ≥ 1).
	P int
	// Rounds is the round budget T (required, ≥ 1). Sessions always run
	// the exact threshold set Λ = ℝ — the incremental oracle repairs exact
	// histories, so there is no Lambda knob here.
	Rounds int
	// Part places nodes; nil means shard.Hash{}.
	Part shard.Partitioner
	// Transport is net.TransportPipe (default), TransportUnix or
	// TransportTCP.
	Transport string
	// IOTimeout, when non-zero, arms per-operation deadlines on every
	// connection and bounds the coordinator's reply waits.
	IOTimeout time.Duration
	// Trace, when set, collects the whole session's timeline on one tracer:
	// the epoch-0 run (coordinator and all worker spans), then per-epoch
	// seal/publish spans coordinator-side and repair/rebalance spans
	// worker-side.
	Trace *obs.Tracer
	// Recover arms crash recovery (DESIGN.md §13): a worker death during
	// the epoch-0 run is checkpoint-restored by the net layer, and one
	// during a later epoch seal is respawned and re-admitted at the last
	// sealed epoch instead of latching the session broken. Epoch-0
	// handshake faults stay fatal either way.
	Recover bool
	// kill, when non-nil, hands each worker goroutine its fault-injection
	// hook (the recovery tests' seam; unexported because fault injection is
	// not part of the public session surface).
	kill func(worker int) net.KillFunc
}

// Session is the in-process form of a long-lived cluster: P worker
// goroutines connected over real net.Conns, opened with one full
// coordinated run (epoch 0) and kept hot for streamed delta epochs. It is
// the same protocol cmd/cluster's serve/push/sub speak across processes,
// with the subscription layer driven directly (Subscribe/Ledger) instead of
// over a control socket. Not safe for concurrent use.
type Session struct {
	co     *Coordinator
	hub    *net.Hub
	cl     *net.Cluster
	closed bool
}

// Open launches P in-process workers (net.Launch), runs epoch 0 (a full
// coordinated run, byte-identical to dist.SeqEngine's) and seals it into
// the digest chain. The returned session owns the connections; Close it.
func Open(g *graph.Graph, opt Options) (*Session, error) {
	p := opt.P
	if p < 1 {
		return nil, fmt.Errorf("session: Open requires P >= 1")
	}
	T := opt.Rounds
	if T < 1 {
		return nil, fmt.Errorf("session: Open requires Rounds >= 1")
	}
	part := opt.Part
	if part == nil {
		part = shard.Hash{}
	}
	assign, err := shard.Place(part, g, p)
	if err != nil {
		return nil, err
	}
	s := &Session{}
	// Every incarnation of a worker runs the same body. Until epoch 0 is
	// sealed that is the whole worker life — handshake, (checkpoint-
	// restored) run, serve loop; afterwards a respawn recomputes its state
	// from the coordinator's committed graph and assignment — read here, at
	// respawn time, so a recovery mid-epoch e restores to the sealed epoch
	// e-1 — and joins the serve loop through the resume admission.
	s.cl, err = net.Launch(opt.Transport, p, opt.IOTimeout, func(idx int, c *net.Conn) (*net.Worker, func() error) {
		var kill net.KillFunc
		if opt.kill != nil {
			kill = opt.kill(idx)
		}
		if co := s.co; co != nil {
			g2, as2 := co.g, co.assign
			return nil, func() error { return resumeWorker(c, g2, as2, idx, p, T, part, opt.Trace, kill) }
		}
		w := net.NewWorker(c, g, assign)
		w.Part, w.Trace, w.IOTimeout, w.Kill = part, opt.Trace, opt.IOTimeout, kill
		return w, func() error {
			_, err := ServeWorker(c, w, g, assign, T, part)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	s.hub = net.NewHub(s.cl.Conns())
	spec := net.Spec{
		P:          p,
		MaxRounds:  T,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
		IOTimeout:  opt.IOTimeout,
		Trace:      opt.Trace,
	}
	if opt.Recover {
		spec.Recover = true
		spec.Respawn = s.cl.Respawn
	}
	co, err := NewCoordinator(s.hub, spec, g, assign, part)
	if err != nil {
		s.teardown()
		return nil, err
	}
	s.co = co
	// From here on every respawn resumes from the committed graph; drop the
	// spawn body's hold on the epoch-0 inputs so the launcher does not pin
	// them for the session's life.
	g, assign = nil, nil
	return s, nil
}

// ServeWorker is a session worker's whole life from the handshake on, over
// c with w as its run engine: the epoch-0 run (Λ = ℝ), the shard's values
// shipped, the session state built and cross-checked against the run, then
// the epoch loop until the coordinator says goodbye. Open's in-process
// workers and cmd/cluster's -session workers both run it. The hello is read
// from c unless the caller pre-read it into w.Hello; w's Trace and Kill
// carry over to the epoch loop. The returned state (nil when the worker
// never got past the run) reports where the session ended.
func ServeWorker(c *net.Conn, w *net.Worker, g *graph.Graph, assign []int, T int, part shard.Partitioner) (*WorkerState, error) {
	if w.Hello == nil {
		h, err := net.ReadHello(c)
		if err != nil {
			return nil, err
		}
		w.Hello = h
	}
	h := w.Hello
	switch {
	case h.DeltaDigest != 0:
		return nil, fmt.Errorf("session: sessions open on an unchurned run; churn streams in afterwards")
	case h.LamKind != codec.LamReals:
		return nil, fmt.Errorf("session: sessions require the exact threshold set Λ = ℝ")
	}
	res, _ := core.RunDistributed(g, core.Options{Rounds: T}, w)
	if h.WantValues {
		if err := w.SendValues(res.B); err != nil {
			return nil, err
		}
	}
	ws, err := NewWorkerState(c, g, assign, h.Shard, h.P, T, part, res.B)
	if err != nil {
		return nil, err
	}
	ws.SetTracer(w.Trace)
	ws.Kill = w.Kill
	return ws, ws.serve(false)
}

// resumeWorker is a crash-recovered session worker's life (DESIGN.md §13):
// rebuild the oracle from the committed graph and assignment — the exact
// incremental oracle under Λ = ℝ makes the recomputed state bit-identical
// to what the dead incarnation held at the last seal, so no state ships —
// then pass the resume admission and join the epoch loop. runB is nil:
// there is no fresh run to cross-check against; the resume stamp's values
// digest is the admission check instead.
func resumeWorker(c *net.Conn, g *graph.Graph, assign []int, idx, p, T int, part shard.Partitioner, tr *obs.Tracer, kill net.KillFunc) error {
	ws, err := NewWorkerState(c, g, assign, idx, p, T, part, nil)
	if err != nil {
		return err
	}
	ws.SetTracer(tr)
	ws.Kill = kill
	return ws.serve(true)
}

// Push streams one delta batch as the next epoch (see Coordinator.Push for
// the failure contract: rejected batches leave the session live, forked
// epochs break it for good).
func (s *Session) Push(d dist.GraphDelta, moveBudget int) (*EpochReport, error) {
	if s.closed {
		return nil, fmt.Errorf("session: closed")
	}
	return s.co.Push(d, moveBudget)
}

// Subscribe registers a want-list and returns the subscriber ID.
func (s *Session) Subscribe(topics ...Topic) int { return s.co.Subs().Subscribe(topics) }

// Unsubscribe removes a subscriber.
func (s *Session) Unsubscribe(id int) bool { return s.co.Subs().Unsubscribe(id) }

// Ledger returns a copy of a subscriber's ledger.
func (s *Session) Ledger(id int) (Ledger, bool) { return s.co.Subs().Ledger(id) }

// Values returns a copy of the current value vector.
func (s *Session) Values() []float64 { return s.co.Values() }

// Epoch returns the last sealed epoch.
func (s *Session) Epoch() int { return s.co.Epoch() }

// ChainDigest returns the chain digest of the last sealed epoch.
func (s *Session) ChainDigest() uint64 { return s.co.ChainDigest() }

// Digests returns the last sealed epoch's (graph, partition, values)
// digests.
func (s *Session) Digests() (graphHash, partDigest, valuesDigest uint64) { return s.co.Digests() }

// Metrics returns the epoch-0 run's dist.Metrics.
func (s *Session) Metrics() dist.Metrics { return s.co.Metrics() }

// Recoveries returns the number of worker crash recoveries performed since
// the session opened (epoch-level ones; epoch-0 run recoveries are counted
// by the net layer).
func (s *Session) Recoveries() int64 { return s.co.Recoveries() }

// Report returns the epoch-0 run's cluster report.
func (s *Session) Report() *net.Report { return s.co.Report() }

// Err returns the error that broke the session, nil while it is live (a
// break from a seal in flight is a *BreakCause — see Cause).
func (s *Session) Err() error { return s.co.Err() }

// Cause returns the structured break diagnosis — epoch, phase, implicated
// worker, underlying error — nil while the session is live.
func (s *Session) Cause() *BreakCause { return s.co.Cause() }

// Stat snapshots the session's introspection counters (see codec.Stat).
func (s *Session) Stat() codec.Stat { return s.co.Stat() }

// Close says goodbye to every worker, waits for them to exit and releases
// the connections. Idempotent.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.co != nil {
		s.co.Bye()
	}
	s.cl.Wait()
	s.teardown()
	return nil
}

// teardown releases the connections, the workers and the hub readers. On
// the failed-Open path no Bye is owed: the run itself failed and error
// records are already in flight.
func (s *Session) teardown() {
	s.cl.Close()
	s.hub.Close()
}
