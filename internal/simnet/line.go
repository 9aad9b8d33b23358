package simnet

import (
	"errors"
	"net"
	"sync"

	"tlsshortcuts/internal/handoff"
	"tlsshortcuts/internal/tlsserver"
)

// Line is a reusable simulated connection: one buffered pipe with its
// buffers, the connection's hand-off, and the goroutine that serves the
// far end. Its owner dials it, closes what it dialed, and dials it again,
// so a redial allocates no pipe; each scanner and traffic worker owns
// one, as it owns its client config and entropy stream. The zero value
// is ready to dial, and a Line must not be copied once dialed.
//
// A Line carries one connection at a time: dialing a Line whose
// connection is still open fails. Close on the dialed connection waits
// for its server goroutine and then clears the hand-off, both buffers
// and the deadlines, so nothing a connection handed over (a server key,
// a premaster, an AEAD, a signature nonce) outlives it or reaches the
// next one. The pipe reads as closed until the Line is dialed again, and
// the owner must not use the connection after Close.
type Line struct {
	mu   sync.Mutex
	busy bool // a dialed connection is open
	p    pipePair
	link handoff.Link

	served sync.WaitGroup // the goroutine serving p.b, while one runs
	srv    net.Conn       // what it serves: p.b or a wrapper of it
	cfg    *tlsserver.Config
	run    func() // the server goroutine's body, bound once per Line
}

var errLineBusy = errors.New("simnet: dial into a Line whose connection is still open")

// ready wires a fresh Line and reports whether it can be dialed.
func (l *Line) ready() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.busy {
		return errLineBusy
	}
	if l.run == nil {
		l.p.init()
		l.p.a.line = l
		l.p.a.link, l.p.b.link, l.p.b.end = &l.link, &l.link, 1
		// A closure, not the method value l.serve: the method value's
		// wrapper frame would sit under every server's first read, which
		// is within a few dozen bytes of the stack a goroutine starts
		// with, so each server would grow its stack.
		l.run = func() {
			defer l.served.Done()
			defer l.srv.Close()
			_ = tlsserver.Serve(l.srv, l.cfg)
		}
	}
	return nil
}

// open starts a connection on l. With cfg set, a new goroutine runs the
// terminator on srv, the b end or a wrapper of it, and closes srv once
// Serve returns; closing the client end waits for that goroutine, so the
// server state alive at once (pooled handshake state, pipe buffers) is
// bounded by the dialing goroutines instead of by how far the scheduler
// lags behind them. With cfg nil nothing serves (a stalled peer).
func (l *Line) open(cfg *tlsserver.Config, srv net.Conn) {
	l.mu.Lock()
	l.busy = true
	l.p.ab.reopen()
	l.p.ba.reopen()
	l.p.b.closed = false
	l.mu.Unlock()
	if cfg != nil {
		l.srv, l.cfg = srv, cfg
		l.served.Add(1)
		go l.run()
	}
}

// close closes l's open connection, if any: the client end shuts, the
// server sees io.EOF or a failed write and returns, and once its
// goroutine is done l is cleared for the next dial.
func (l *Line) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.busy {
		return nil
	}
	l.p.a.close()
	l.served.Wait()
	l.p.ab.clear()
	l.p.ba.clear()
	l.link = handoff.Link{}
	l.srv, l.cfg = nil, nil
	l.busy = false
	return nil
}
