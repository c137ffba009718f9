package net

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/quantize"
	"distkcore/internal/shard"
)

// Streamed-mesh specific properties (DESIGN.md §14). Byte-identity of the
// streamed engine against seq is pinned by the equivalence and recovery
// sweeps; the tests here pin the *transport* claims — that the hypercube
// topology actually relays, that per-worker wire load stays ~flat as P
// grows (the coordinator funnel is gone), and that a P=64 mesh over pipes
// survives a full run without leaking goroutines.

func streamEngine(p int, part shard.Partitioner) *Engine {
	e := NewEngine(p, part)
	e.ChunkBytes = 512 // force multi-chunk flows and window refills
	return e
}

// maxWorkerWire is the heaviest per-worker data-plane load: bytes a worker
// put on mesh links for any reason, own frames and relayed hops alike.
func maxWorkerWire(e *Engine) int64 {
	var max int64
	for _, w := range e.StreamWire() {
		if v := w.Sent + w.Relayed; v > max {
			max = v
		}
	}
	return max
}

func totalWorkerWire(e *Engine) int64 {
	var tot int64
	for _, w := range e.StreamWire() {
		tot += w.Sent + w.Relayed
	}
	return tot
}

// An eight-worker mesh below the threshold routes e-cube: frames between
// non-adjacent hypercube nodes must traverse intermediate workers, and the
// run must stay byte-identical to seq while doing so.
func TestStreamHypercubeRelays(t *testing.T) {
	g := graph.BarabasiAlbert(400, 5, 7)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	e := streamEngine(8, shard.Hash{})
	e.MeshThreshold = 8
	res, met := core.RunDistributed(g, opt, e)
	if met != refMet {
		t.Fatalf("cube metrics %+v, want %+v", met, refMet)
	}
	if !reflect.DeepEqual(res.B, ref.B) {
		t.Fatal("cube B vector diverges from seq")
	}
	wire := e.StreamWire()
	var relayed int64
	for _, w := range wire {
		relayed += w.Relayed
	}
	if relayed == 0 {
		t.Fatalf("hypercube mesh never relayed a byte: %+v", wire)
	}
	// A P=8 cube has diameter 3: workers 0 and 7 differ in every bit, so at
	// least one interior worker must have carried third-party traffic.
	interior := 0
	for s, w := range wire {
		if w.Relayed > 0 {
			interior++
			t.Logf("worker %d relayed %d bytes", s, w.Relayed)
		}
	}
	if interior == 0 {
		t.Fatal("no worker recorded relay traffic")
	}
}

// Per-worker wire load must stay roughly flat as P grows — the whole point
// of the mesh is that no single endpoint funnels the cluster's traffic. At
// P=16 the default threshold flips the topology to the hypercube, so this
// also covers cube selection without a forced override.
func TestStreamWireFlatAcrossP(t *testing.T) {
	g := graph.BarabasiAlbert(800, 5, 9)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	loads := map[int]int64{}
	for _, p := range []int{4, 16} {
		e := streamEngine(p, shard.Hash{})
		res, met := core.RunDistributed(g, opt, e)
		if met != refMet {
			t.Fatalf("P=%d metrics %+v, want %+v", p, met, refMet)
		}
		if !reflect.DeepEqual(res.B, ref.B) {
			t.Fatalf("P=%d B vector diverges from seq", p)
		}
		loads[p] = maxWorkerWire(e)
		t.Logf("P=%d max per-worker wire %d, total %d", p, loads[p], totalWorkerWire(e))
	}
	// Quadrupling the cluster must not grow the heaviest worker's wire
	// share: total cross traffic is fixed by the protocol, so spreading it
	// over 4× the workers — even with cube relay overhead (log P hops) —
	// has to shrink, or at worst hold, the per-worker maximum.
	if loads[16] > loads[4] {
		t.Fatalf("per-worker wire grew with P: P=4 max %d, P=16 max %d", loads[4], loads[16])
	}
}

// P=64 pipe soak, gated behind DKC_SCALE_SOAK=1: a 6-dimensional hypercube
// (64 workers, 384 goroutine-backed data links plus control conns) runs a
// full protocol byte-identical to seq, per-worker wire stays in the same
// band as a small mesh, and the whole apparatus drains without leaking a
// goroutine.
func TestStreamSoakP64(t *testing.T) {
	if os.Getenv("DKC_SCALE_SOAK") == "" {
		t.Skip("set DKC_SCALE_SOAK=1 to run the P=64 mesh soak")
	}
	g := graph.BarabasiAlbert(3000, 5, 17)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}
	ref, refMet := core.RunDistributed(g, opt, dist.SeqEngine{})

	before := runtime.NumGoroutine()
	loads := map[int]int64{}
	for _, p := range []int{4, 64} {
		e := streamEngine(p, shard.Hash{})
		e.ChunkBytes = shard.DefaultChunkBytes
		res, met := core.RunDistributed(g, opt, e)
		if met != refMet {
			t.Fatalf("P=%d metrics %+v, want %+v", p, met, refMet)
		}
		if !reflect.DeepEqual(res.B, ref.B) {
			t.Fatalf("P=%d B vector diverges from seq", p)
		}
		loads[p] = maxWorkerWire(e)
		t.Logf("P=%d max per-worker wire %d, total %d (name %s)",
			p, loads[p], totalWorkerWire(e), e.Name())
	}
	if loads[64] > loads[4] {
		t.Fatalf("per-worker wire grew 4→64: max %d vs %d", loads[64], loads[4])
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked across the soak: %d before, %d after", before, got)
	}
}

// The streamed ledger must price frames identically to the in-process
// sharded engine (DESIGN.md §8): the ClusterMetrics of a streamed run and
// the ShardMetrics of a shard.Engine run of the same execution are the same
// struct, chunking and topology notwithstanding. The shard.Engine ledger is
// the one the coordinator relay used to reproduce, so the check is unchanged.
func TestStreamLedgerMatchesRelay(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 13)
	T := core.TForEpsilon(g.N(), 0.5)
	opt := core.Options{Rounds: T, Lambda: quantize.NewPowerGrid(0.1)}

	ref := shard.NewEngine(4, shard.Greedy{})
	_, refMet := core.RunDistributed(g, opt, ref)

	for _, threshold := range []int{0, 4} {
		e := streamEngine(4, shard.Greedy{})
		e.MeshThreshold = threshold
		_, met := core.RunDistributed(g, opt, e)
		if met != refMet {
			t.Fatalf("threshold=%d metrics %+v, want %+v", threshold, met, refMet)
		}
		if lg, sl := e.ClusterMetrics(), ref.ShardMetrics(); !reflect.DeepEqual(lg, sl) {
			t.Fatalf("threshold=%d streamed ledger %+v, shard-engine ledger %+v", threshold, lg, sl)
		}
	}
}

// Engine names identify the transport and partitioner only: streaming is
// the sole data plane, so the deprecated Stream field must not change them.
func TestStreamEngineName(t *testing.T) {
	e := streamEngine(4, shard.Hash{})
	want := "net:4/hash"
	if got := e.Name(); got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	e.Stream = true
	if got := e.Name(); got != want {
		t.Fatalf("Name() with Stream set = %q, want %q", got, want)
	}
}

func init() {
	// Guard against accidentally committing a soak-gated default.
	if os.Getenv("DKC_SCALE_SOAK") != "" {
		fmt.Fprintln(os.Stderr, "net: DKC_SCALE_SOAK armed — P=64 mesh soak enabled")
	}
}
