package net

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
)

// Listener is a worker process's one listen socket (DESIGN.md §14): the
// coordinator connection and every inbound mesh link arrive on it, and the
// first record of an accepted connection says which is which — a hello
// opens the coordinator connection, a mesh hello a mesh link. A worker's
// mesh address is therefore its control address, on unix sockets and TCP
// alike, and a respawned worker rebinding the shard's address is reachable
// by coordinator and peers at once.
type Listener struct {
	ln    net.Listener
	coord chan net.Conn
	mesh  chan net.Conn
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup // the accept loop and every classifier

	mu      sync.Mutex
	pending map[net.Conn]bool // accepted, first record not yet classified
}

// Listen binds addr and starts classifying accepted connections.
func Listen(network, addr string) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		ln:      ln,
		coord:   make(chan net.Conn),
		mesh:    make(chan net.Conn),
		done:    make(chan struct{}),
		pending: map[net.Conn]bool{},
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// AcceptCoordinator blocks for the next connection whose first record is a
// coordinator hello (or an error record). The hello is still unread: wrap
// the connection with NewConn and read it with ReadHello.
func (l *Listener) AcceptCoordinator() (net.Conn, error) { return l.next(l.coord) }

// AcceptMesh blocks for the next inbound mesh link, its mesh hello still
// unread — the shape Worker.MeshAccept wants.
func (l *Listener) AcceptMesh() (net.Conn, error) { return l.next(l.mesh) }

// Close stops the listener and returns once its goroutines have exited:
// pending Accept calls and connections still awaiting classification are
// released. Connections already handed out are the caller's. Idempotent.
func (l *Listener) Close() error {
	l.stop()
	l.wg.Wait()
	return nil
}

// stop releases everything Close does without waiting, so the accept loop
// can call it when the socket fails under it.
func (l *Listener) stop() {
	l.once.Do(func() {
		close(l.done)
		l.ln.Close()
		l.mu.Lock()
		for c := range l.pending {
			c.Close()
		}
		l.mu.Unlock()
	})
}

func (l *Listener) next(ch chan net.Conn) (net.Conn, error) {
	select {
	case c := <-ch:
		return c, nil
	case <-l.done:
		return nil, errors.New("net: listener closed")
	}
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			l.stop()
			return
		}
		l.mu.Lock()
		select {
		case <-l.done:
			l.mu.Unlock()
			nc.Close()
			return
		default:
		}
		l.pending[nc] = true
		l.mu.Unlock()
		l.wg.Add(1)
		go l.classify(nc)
	}
}

// classify peeks the first record's type byte and hands the connection, with
// nothing consumed, to the matching Accept queue.
func (l *Listener) classify(nc net.Conn) {
	defer l.wg.Done()
	br := bufio.NewReader(nc)
	typ, err := peekType(br)
	l.mu.Lock()
	delete(l.pending, nc)
	l.mu.Unlock()
	if err != nil {
		nc.Close()
		return
	}
	ch := l.mesh
	if typ == recHello || typ == recError {
		ch = l.coord
	}
	select {
	case ch <- peekedConn{Conn: nc, r: br}:
	case <-l.done:
		nc.Close()
	}
}

// peekType returns the type byte of the next record without consuming it:
// the uvarint length is peeked byte by byte (a short record must not block
// on bytes that never come), then the byte after it.
func peekType(br *bufio.Reader) (byte, error) {
	for i := 1; i <= binary.MaxVarintLen64; i++ {
		b, err := br.Peek(i)
		if err != nil {
			return 0, err
		}
		if b[i-1] < 0x80 {
			b, err = br.Peek(i + 1)
			if err != nil {
				return 0, err
			}
			return b[i], nil
		}
	}
	return 0, errors.New("net: oversized record length")
}

// peekedConn is a net.Conn whose reads drain the classifier's buffered
// reader first, so the peeked record reaches its reader intact.
type peekedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c peekedConn) Read(p []byte) (int, error) { return c.r.Read(p) }
