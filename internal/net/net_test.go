package net

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distkcore/internal/codec"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// The socket transport ships the exact frame bytes the in-process sharded
// engine accounts: same messages, same per-frame order (ascending sender
// within a shard), same header and body codec. So for identical (g, P,
// partitioner, Λ) the two cluster ledgers must agree to the byte.
func TestClusterLedgerMatchesShardEngine(t *testing.T) {
	g := graph.BarabasiAlbert(250, 4, 11)
	T := core.TForEpsilon(g.N(), 0.5)
	for _, lam := range []quantize.Lambda{nil, quantize.NewPowerGrid(0.1)} {
		opt := core.Options{Rounds: T, Lambda: lam}
		se := shard.NewEngine(4, shard.Greedy{})
		core.RunDistributed(g, opt, se)
		ne := NewEngine(4, shard.Greedy{})
		core.RunDistributed(g, opt, ne)
		ssm, nsm := se.ShardMetrics(), ne.ClusterMetrics()
		if ssm.CrossMessages != nsm.CrossMessages ||
			ssm.CrossFrameBytes != nsm.CrossFrameBytes ||
			ssm.MaxShardBytes != nsm.MaxShardBytes ||
			ssm.EdgeCutFraction != nsm.EdgeCutFraction {
			t.Fatalf("λ=%v: ledgers diverge:\n shard %+v\n net   %+v", lam, ssm, nsm)
		}
		for s := range ssm.PerShardBytes {
			if ssm.PerShardBytes[s] != nsm.PerShardBytes[s] {
				t.Fatalf("λ=%v: shard %d bytes %d vs %d", lam, s, ssm.PerShardBytes[s], nsm.PerShardBytes[s])
			}
		}
	}
}

// The delay hook must fire once per outgoing frame with plausible
// arguments, and must not perturb the execution.
func TestDelayHookFiresPerFrame(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 2)
	T := core.TForEpsilon(g.N(), 0.5)
	_, refMet := core.RunDistributed(g, core.Options{Rounds: T}, dist.SeqEngine{})
	var calls, bytes atomic.Int64
	eng := NewEngine(3, shard.Hash{})
	eng.Delay = func(src, dst, round, frameBytes int) {
		if src == dst || src < 0 || src >= 3 || dst < 0 || dst >= 3 || frameBytes <= 0 {
			t.Errorf("delay hook got (src=%d dst=%d round=%d bytes=%d)", src, dst, round, frameBytes)
		}
		calls.Add(1)
		bytes.Add(int64(frameBytes))
	}
	_, met := core.RunDistributed(g, core.Options{Rounds: T}, eng)
	if met != refMet {
		t.Fatalf("delay hook perturbed metrics: %+v vs %+v", met, refMet)
	}
	sm := eng.ClusterMetrics()
	if calls.Load() == 0 {
		t.Fatal("delay hook never fired despite cross traffic")
	}
	if bytes.Load() != sm.CrossFrameBytes {
		t.Fatalf("delay hook saw %d frame bytes, ledger says %d", bytes.Load(), sm.CrossFrameBytes)
	}
}

// A worker whose graph disagrees with the coordinator's hello must abort
// the whole run with a fingerprint diagnosis, not run on the wrong input.
func TestHandshakeRejectsGraphMismatch(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 1)
	other := graph.BarabasiAlbert(60, 3, 2)
	assign := shard.Hash{}.Partition(g, 2)
	a0, b0 := net.Pipe()
	a1, b1 := net.Pipe()
	coord := []*Conn{NewConn(a0), NewConn(a1)}
	workers := []*Conn{NewConn(b0), NewConn(b1)}
	var wg sync.WaitGroup
	for s, wc := range workers {
		wg.Add(1)
		go func(s int, wc *Conn) {
			defer wg.Done()
			defer wc.Close()
			held := other // worker 1 holds the wrong graph
			if s == 0 {
				held = g
			}
			w := NewWorker(wc, held, shard.Hash{}.Partition(held, 2))
			if _, err := w.run(held, func(graph.NodeID) dist.Program { return nil }, 3); err != nil {
				wc.SendError(err)
			}
		}(s, wc)
	}
	_, _, err := RunCoordinator(coord, Spec{
		P: 2, MaxRounds: 3,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
	})
	for _, c := range coord {
		c.Close()
	}
	wg.Wait()
	if err == nil {
		t.Fatal("coordinator accepted a worker holding a different graph")
	}
}

// End-to-end rehearsal of the cmd/cluster flow in one process: a
// coordinator that requests result values, workers that run the coreness
// protocol through core.RunDistributed with a Worker as the engine and ship
// their shard's B values — the coordinator must reassemble the exact
// SeqEngine vector and Metrics.
func TestCoordinatorCollectsValues(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 9)
	T := core.TForEpsilon(g.N(), 0.5)
	lam := quantize.NewPowerGrid(0.1)
	part := shard.Greedy{}
	const P = 3
	assign := part.Partition(g, P)
	ref, refMet := core.RunDistributed(g, core.Options{Rounds: T, Lambda: lam}, dist.SeqEngine{})

	coord := make([]*Conn, P)
	workers := make([]*Conn, P)
	for i := range coord {
		a, b := net.Pipe()
		coord[i], workers[i] = NewConn(a), NewConn(b)
	}
	mesh := NewLocalMesh(P)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(wc *Conn) {
			defer wg.Done()
			defer wc.Close()
			h, err := ReadHello(wc)
			if err != nil {
				t.Error(err)
				return
			}
			hlam, err := LambdaFromHello(h)
			if err != nil {
				t.Error(err)
				return
			}
			w := NewWorker(wc, g, assign)
			w.Hello = h
			mesh.Join(w, h.Shard)
			res, _ := core.RunDistributed(g, core.Options{Rounds: h.MaxRounds, Lambda: hlam}, w)
			if err := w.SendValues(res.B); err != nil {
				t.Error(err)
			}
		}(workers[i])
	}
	met, rep, err := RunCoordinator(coord, Spec{
		P: P, MaxRounds: T, Lam: lam,
		GraphHash:  g.Fingerprint(),
		PartDigest: shard.PartitionDigest(assign),
		WantValues: true,
	})
	for _, c := range coord {
		c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if met != refMet {
		t.Fatalf("metrics %+v, want %+v", met, refMet)
	}
	if rep.Nodes != g.N() {
		t.Fatalf("workers own %d nodes, graph has %d", rep.Nodes, g.N())
	}
	b, err := rep.Assemble(g.N())
	if err != nil {
		t.Fatal(err)
	}
	for v := range b {
		if b[v] != ref.B[v] {
			t.Fatalf("node %d: cluster value %v, seq value %v", v, b[v], ref.B[v])
		}
	}
}

// The retired coordinator-relay records (4 frame, 5 done, 6 deliver, 21
// replay) keep their numbers reserved: a worker that receives one mid-run
// must reject it as an unknown record type, not interpret it.
func TestRetiredRelayRecordsRejected(t *testing.T) {
	g := graph.BarabasiAlbert(40, 3, 1)
	assign := shard.Hash{}.Partition(g, 1)
	for _, typ := range []byte{4, 5, 6, 21} {
		a, b := net.Pipe()
		cc, wc := NewConn(a), NewConn(b)
		w := NewWorker(wc, g, assign)
		NewLocalMesh(1).Join(w, 0)
		errc := make(chan error, 1)
		go func() {
			_, err := w.run(g, func(graph.NodeID) dist.Program { return nil }, 3)
			errc <- err
		}()
		h := codec.Hello{Version: codec.HandshakeVersion, P: 1, MaxRounds: 3,
			GraphHash: g.Fingerprint(), PartDigest: shard.PartitionDigest(assign)}
		if err := cc.writeRecord(recHello, codec.AppendHello(nil, h)); err != nil {
			t.Fatal(err)
		}
		cc.flush()
		if rt, _, err := cc.readRecord(); err != nil || rt != recWelcome {
			t.Fatalf("record %d: handshake reply type %d, err %v", typ, rt, err)
		}
		cc.writeRecord(typ, []byte{0, 0})
		cc.flush()
		err := <-errc
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unexpected record type %d", typ)) {
			t.Fatalf("record %d: worker error %v, want an unknown-record rejection", typ, err)
		}
		cc.Close()
		wc.Close()
	}
}

// A worker's Listener hands each accepted connection to the queue its first
// record names — a hello to AcceptCoordinator, a mesh hello to AcceptMesh —
// with that record still unread, and Close releases a blocked Accept and
// every goroutine the listener started.
func TestListenerSplitsCoordinatorAndMesh(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.ln.Addr().String()
	send := func(typ byte, body []byte) net.Conn {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(nc)
		c.writeRecord(typ, body)
		c.flush()
		return nc
	}
	// The mesh link dials first: arrival order must not decide the kind.
	m := send(recMeshHello, []byte{1, 0})
	defer m.Close()
	h := send(recHello, []byte("hi"))
	defer h.Close()
	for _, want := range []struct {
		accept func() (net.Conn, error)
		typ    byte
		body   string
	}{{ln.AcceptCoordinator, recHello, "hi"}, {ln.AcceptMesh, recMeshHello, "\x01\x00"}} {
		nc, err := want.accept()
		if err != nil {
			t.Fatal(err)
		}
		typ, body, err := NewConn(nc).readRecord()
		if err != nil || typ != want.typ || string(body) != want.body {
			t.Fatalf("accepted record (%d, %q, %v), want (%d, %q)", typ, body, err, want.typ, want.body)
		}
		nc.Close()
	}
	silent, err := net.Dial("tcp", addr) // never classified
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := ln.AcceptMesh()
		errc <- err
	}()
	ln.Close()
	if err := <-errc; err == nil {
		t.Fatal("AcceptMesh returned a connection after Close")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("listener goroutines outlived Close: %d before, %d after", before, got)
	}
}
