package server

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Instance is a Server serving its Handler on a TCP listener in this
// process: the one way Run and the tests (the chaos gauntlet among
// them) bring a server up and take it down.
type Instance struct {
	// URL is the base URL clients address, e.g. "http://127.0.0.1:8612".
	URL string

	addr     string // the bound listen address
	srv      *Server
	hs       *http.Server
	done     chan struct{} // closed once Serve returns
	serveErr error         // Serve's return value, valid after done
}

// Serve serves an already-built Server on addr ("" picks 127.0.0.1:0)
// until Stop or Kill. It takes a built Server rather than a Config so
// that anything set on it before serving (the tests' exec hook) has a
// happens-before edge to every handler: the race detector sees none
// through a TCP socket.
func Serve(s *Server, addr string) (*Instance, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		URL:  "http://" + ln.Addr().String(),
		addr: ln.Addr().String(),
		srv:  s,
		hs:   &http.Server{Handler: s.Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(in.done)
		in.serveErr = in.hs.Serve(ln)
	}()
	return in, nil
}

// Stop shuts the instance down gracefully: admission closes and every
// admitted job finishes, streams still flushing get up to 30s to drain
// through http.Server.Shutdown, then the workers retire and the journal
// closes cleanly.
func (in *Instance) Stop() error {
	in.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	in.srv.Close()
	<-in.done
	return err
}

// Kill crashes the instance. A real SIGKILL severs the process's
// sockets and its execution at the same instant; in-process, the
// listener and its connections go first so ephemeral jobs lose their
// client streams and die — otherwise Kill's worker shutdown could be
// pinned behind a stalled ephemeral job whose context only its client
// connection cancels. The journal is abandoned inside Server.Kill
// before job contexts die, preserving the no-zero-digest window.
func (in *Instance) Kill() {
	_ = in.hs.Close()
	in.srv.Kill()
	<-in.done
}
