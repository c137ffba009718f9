package net

import (
	"fmt"
	"sync"
	"time"
)

// inRec is one record (or terminal read error) from one worker, as pushed
// by the hub's per-connection reader goroutines. gen is the connection
// generation the record came from: records from a dead incarnation that
// was replaced by a respawn are filtered out on receive.
type inRec struct {
	from int
	gen  int
	typ  byte
	body []byte
	err  error
}

// maxRecoveries caps respawns per worker over a hub's life: a worker that
// keeps dying (a crash loop, a poisoned input) eventually fails the run or
// breaks the session instead of respawning forever.
const maxRecoveries = 8

// Hub owns the coordinator side of P established worker connections: one
// reader goroutine per connection pumping records into a shared channel,
// the recovering receive both coordinators build on (Next, NextFrom, Blame,
// Respawn), and the run protocol (Run) on top. Unlike the one-shot
// RunCoordinator wrapper, a Hub outlives a run — its readers keep pumping
// after Run returns, which is what lets a session (internal/session) keep
// the same workers hot across an epoch stream on one set of connections.
// Every method except Close must be called from the one goroutine driving
// the protocol. Close it exactly once, after the last exchange; the caller
// still owns and closes the connections themselves.
type Hub struct {
	// Timeout, when non-zero, bounds every receive: silence longer than
	// this fails the exchange with a timeout error instead of hanging.
	Timeout time.Duration

	conns []*Conn
	// gens[i] is worker i's connection generation, bumped by Respawn.
	// Readers get their generation as a parameter at spawn.
	gens []int
	ch   chan inRec
	done chan struct{}
	once sync.Once

	// stash defers records other workers interleave while an exchange
	// awaits one specific worker (NextFrom); receives drain it FIFO before
	// the channel, so per-worker order holds across a recovery exchange.
	stash []inRec
	// absorb, when set, sees every record as it leaves the channel and
	// consumes the ones it returns true for (the run's checkpoint
	// retention); an error fails the receive.
	absorb func(inRec) (bool, error)
	// attempts counts the respawns performed per worker (Respawn).
	attempts []int
}

// NewHub wraps conns (conns[i] is shard i) and starts the per-connection
// reader goroutines. The hub keeps the slice and swaps respawned
// connections into it, so a caller holding the same slice closes the live
// incarnations at teardown.
func NewHub(conns []*Conn) *Hub {
	h := &Hub{
		conns: conns,
		gens:  make([]int, len(conns)),
		// A few records of slack per worker, so readers keep draining their
		// sockets while the protocol goroutine verifies a round.
		ch:       make(chan inRec, 8*len(conns)),
		done:     make(chan struct{}),
		attempts: make([]int, len(conns)),
	}
	for i, cn := range conns {
		go h.reader(i, 0, cn)
	}
	return h
}

// P returns the worker count.
func (h *Hub) P() int { return len(h.conns) }

// Conn returns worker i's connection for writes. All writes must come from
// one goroutine at a time; reads stay with the Hub's readers — never read a
// hub-owned connection directly.
func (h *Hub) Conn(i int) *Conn { return h.conns[i] }

// Close releases the reader goroutines: any reader parked on the bounded
// channel unblocks and exits, and readers blocked in a connection read exit
// as soon as the caller closes the connections. Idempotent.
func (h *Hub) Close() { h.once.Do(func() { close(h.done) }) }

// SendError best-effort ships an error record to every worker, so an abort
// carries its reason instead of a bare broken connection.
func (h *Hub) SendError(err error) {
	for _, cn := range h.conns {
		cn.SendError(err)
	}
}

// reader pumps one connection's records into the shared channel, copying
// each payload out of the Conn's reused buffer. It exits on the first read
// error (EOF included, which is the normal end once the caller closes the
// connection after the last exchange) or when the hub is closed and nobody
// will drain the channel again.
func (h *Hub) reader(i, gen int, cn *Conn) {
	for {
		typ, body, err := cn.AwaitRecord()
		if err != nil {
			select {
			case h.ch <- inRec{from: i, gen: gen, err: err}:
			case <-h.done:
			}
			return
		}
		cp := make([]byte, len(body))
		copy(cp, body)
		select {
		case h.ch <- inRec{from: i, gen: gen, typ: typ, body: cp}:
		case <-h.done:
			return
		}
	}
}

// take receives one record from the channel, dropping records from
// replaced (dead) connection generations and turning a reply timeout into
// a from: -1 error record.
func (h *Hub) take() inRec {
	for {
		var r inRec
		if h.Timeout > 0 {
			t := time.NewTimer(h.Timeout)
			select {
			case r = <-h.ch:
				t.Stop()
			case <-t.C:
				return inRec{from: -1, err: fmt.Errorf("net: no worker record within %v (dead peer?)", h.Timeout)}
			}
		} else {
			r = <-h.ch
		}
		if !h.stale(r) {
			return r
		}
	}
}

// stale reports whether r came from a replaced connection generation.
func (h *Hub) stale(r inRec) bool {
	return r.from >= 0 && r.gen != h.gens[r.from]
}

// foldRec folds a raw record's transport error or worker error record into
// a Go error.
func foldRec(r inRec) (inRec, error) {
	if r.err != nil {
		if r.from < 0 {
			return r, r.err
		}
		return r, fmt.Errorf("net: worker %d: %w", r.from, r.err)
	}
	if r.typ == recError {
		return r, fmt.Errorf("net: worker %d aborted: %s", r.from, r.body)
	}
	return r, nil
}

// recv is the one receive path: the next record from worker w (any worker
// when w < 0), with transport errors, worker error records and timeouts
// folded into the error. Stashed records come first, oldest first, and
// keep the generation filter — a record stashed before its sender was
// replaced never surfaces. Records of other workers that arrive while w is
// awaited are stashed, deaths included; a timeout names nobody and ends
// the wait.
func (h *Hub) recv(w int) (inRec, error) {
	for i := 0; i < len(h.stash); {
		r := h.stash[i]
		switch {
		case h.stale(r):
			h.stash = append(h.stash[:i], h.stash[i+1:]...)
		case w < 0 || r.from == w:
			h.stash = append(h.stash[:i], h.stash[i+1:]...)
			return foldRec(r)
		default:
			i++
		}
	}
	for {
		r := h.take()
		if h.absorb != nil && r.err == nil {
			used, err := h.absorb(r)
			if err != nil {
				return r, err
			}
			if used {
				continue
			}
		}
		if w >= 0 && r.from >= 0 && r.from != w {
			h.stash = append(h.stash, r)
			continue
		}
		return foldRec(r)
	}
}

// Next receives one record from whichever worker spoke (see recv). The body
// is a private copy; from is -1 for a reply timeout.
func (h *Hub) Next() (from int, typ byte, body []byte, err error) {
	r, err := h.recv(-1)
	return r.from, r.typ, r.body, err
}

// NextFrom receives the next record from worker w specifically, stashing
// whatever other workers interleave for later receives — their replies and
// even their deaths are deferred, not lost. Recovery exchanges use it to
// read a respawned worker's re-admission reply.
func (h *Hub) NextFrom(w int) (typ byte, body []byte, err error) {
	r, err := h.recv(w)
	return r.typ, r.body, err
}

// Blame names the worker a failed receive implicates: its sender from, or —
// for a reply timeout (from < 0), which names nobody — the one worker that
// still owes a record, when exactly one does. -1 means the failure cannot
// be attributed.
func (h *Hub) Blame(from int, owes func(i int) bool) int {
	if from >= 0 {
		return from
	}
	cand, lagging := -1, 0
	for i := range h.conns {
		if owes(i) {
			cand, lagging = i, lagging+1
		}
	}
	if lagging == 1 {
		return cand
	}
	return -1
}

// Respawn replaces worker w's dead incarnation: it charges the per-worker
// attempt cap (maxRecoveries over the hub's life), obtains a connection to
// a fresh incarnation from spawn, arms the hub's timeout on it, closes the
// dead connection (unparking its reader, whose final error is generation-
// filtered out) and swaps the new one in under a new generation. The
// caller then re-admits the worker with its own protocol's records.
func (h *Hub) Respawn(w int, spawn func(shard int) (*Conn, error)) (*Conn, error) {
	if h.attempts[w]++; h.attempts[w] > maxRecoveries {
		return nil, fmt.Errorf("net: worker %d died %d times; giving up", w, h.attempts[w])
	}
	cn, err := spawn(w)
	if err != nil {
		return nil, fmt.Errorf("net: respawning worker %d: %w", w, err)
	}
	if h.Timeout > 0 {
		cn.SetIOTimeout(h.Timeout)
	}
	h.conns[w].Close()
	h.gens[w]++
	h.conns[w] = cn
	go h.reader(w, h.gens[w], cn)
	return cn, nil
}
