package session

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"distkcore/internal/dist"
	"distkcore/internal/graph"
	"distkcore/internal/shard"
)

// Epoch 0 streams its rounds over an in-process worker mesh. Once Open
// returns, every goroutine of that mesh — link readers and writers, accept
// loops — must be gone, leaving the session's steady-state set: the P
// worker goroutines and the P hub readers. A mesh that lingered would keep
// its links, retention rings and decode arenas alive for the session's
// whole life. Recovery arms the retention rings, so both modes run.
func TestOpenLeavesOnlySteadyStateGoroutines(t *testing.T) {
	const p = 4
	g := graph.BarabasiAlbert(300, 3, 5)
	for _, recov := range []bool{false, true} {
		before := runtime.NumGoroutine()
		s, err := Open(g, Options{P: p, Rounds: 9, Part: shard.Greedy{}, Recover: recov, IOTimeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("recover=%v: Open: %v", recov, err)
		}
		want := before + 2*p
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if got := runtime.NumGoroutine(); got > want {
			t.Fatalf("recover=%v: %d goroutines after Open, want at most %d (P workers + P hub readers):\n%s", recov, got, want, stacks)
		}
		if strings.Contains(stacks, "internal/net.(*mesh)") || strings.Contains(stacks, "internal/net.(*meshInbox)") {
			t.Fatalf("recover=%v: a mesh goroutine outlived epoch 0:\n%s", recov, stacks)
		}
		// The session is still live on the remaining set.
		if _, err := s.Push(dist.RandomChurn(g, 20, 3), 0); err != nil {
			t.Fatalf("recover=%v: push after Open: %v", recov, err)
		}
		s.Close()
		deadline = time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Fatalf("recover=%v: %d goroutines after Close, %d before Open", recov, got, before)
		}
	}
}
