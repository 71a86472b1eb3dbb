package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/cognitive-sim/compass/internal/coreobject"
)

// Options configures a Server.
type Options struct {
	// HTTPAddr is the control-plane listen address (":0" for ephemeral).
	HTTPAddr string
	// StreamAddr is the data-plane listen address (":0" for ephemeral).
	StreamAddr string
	// CheckpointDir receives one <session-id>.ckpt file per drained
	// session at graceful shutdown. Empty disables checkpoint files
	// (drained state is still queryable until the process exits).
	CheckpointDir string
	// NodeID is the daemon's stable instance identity, reported in
	// /healthz and stamped into every session's Info. Empty means the
	// daemon is anonymous (single-node use).
	NodeID string
	// AdvertiseHTTPAddr and AdvertiseStreamAddr are the addresses peers
	// and coordinators should dial to reach this daemon — they matter
	// when the listen addresses bind a wildcard or sit behind NAT. Empty
	// falls back to the bound listener addresses.
	AdvertiseHTTPAddr   string
	AdvertiseStreamAddr string
	// Manager configures admission control and session defaults.
	Manager ManagerOptions
}

// Server is the compassd core: the session manager plus the two
// listeners (HTTP control plane, TCP stream data plane).
type Server struct {
	opts Options
	mgr  *Manager

	httpLn   net.Listener
	streamLn net.Listener
	httpSrv  *HTTPServer
	wg       sync.WaitGroup
	started  time.Time

	// handshaking holds the stream connections yet to send a handshake.
	handshaking unusedConns

	mu         sync.Mutex
	streamAddr string
}

// New builds an unstarted server.
func New(opts Options) *Server {
	srv := &Server{opts: opts, mgr: NewManager(opts.Manager)}
	srv.mgr.SetNode(opts.NodeID)
	return srv
}

// NodeID returns the daemon's instance identity ("" when anonymous).
func (srv *Server) NodeID() string { return srv.opts.NodeID }

// AdvertiseHTTPAddr returns the address peers should dial for the
// control plane: the configured advertise address, else the bound one.
func (srv *Server) AdvertiseHTTPAddr() string {
	if srv.opts.AdvertiseHTTPAddr != "" {
		return srv.opts.AdvertiseHTTPAddr
	}
	return srv.HTTPAddr()
}

// AdvertiseStreamAddr returns the address peers should dial for the
// stream plane: the configured advertise address, else the bound one.
func (srv *Server) AdvertiseStreamAddr() string {
	if srv.opts.AdvertiseStreamAddr != "" {
		return srv.opts.AdvertiseStreamAddr
	}
	return srv.StreamAddr()
}

// Manager exposes the session manager (tests drive it directly).
func (srv *Server) Manager() *Manager { return srv.mgr }

// Start binds both listeners and begins serving. It returns once the
// listeners are bound; serving continues in background goroutines until
// Shutdown.
func (srv *Server) Start() error {
	srv.started = time.Now()
	httpLn, err := net.Listen("tcp", srv.opts.HTTPAddr)
	if err != nil {
		return fmt.Errorf("server: http listen: %w", err)
	}
	streamLn, err := net.Listen("tcp", srv.opts.StreamAddr)
	if err != nil {
		httpLn.Close()
		return fmt.Errorf("server: stream listen: %w", err)
	}
	srv.httpLn, srv.streamLn = httpLn, streamLn
	srv.mu.Lock()
	srv.streamAddr = streamLn.Addr().String()
	srv.mu.Unlock()

	srv.httpSrv = NewHTTPServer(srv.handler())
	srv.wg.Add(1)
	go srv.acceptStreams(streamLn)
	go srv.httpSrv.Serve(httpLn)
	return nil
}

// HTTPAddr returns the bound control-plane address.
func (srv *Server) HTTPAddr() string {
	if srv.httpLn == nil {
		return srv.opts.HTTPAddr
	}
	return srv.httpLn.Addr().String()
}

// StreamAddr returns the bound data-plane address.
func (srv *Server) StreamAddr() string {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.streamAddr == "" {
		return srv.opts.StreamAddr
	}
	return srv.streamAddr
}

// Shutdown gracefully stops the server: listeners close, every session
// drains to its next chunk boundary, and each drained session's
// checkpoint is written to CheckpointDir as <id>.ckpt. The ctx bounds
// the wait for HTTP requests in flight. A connection on either plane
// that has sent no request or handshake is closed after
// UnusedConnGrace. Session draining always runs to completion so no
// simulated state is lost.
func (srv *Server) Shutdown(ctx context.Context) error {
	var firstErr error
	if srv.streamLn != nil {
		srv.streamLn.Close()
	}
	defer time.AfterFunc(UnusedConnGrace, srv.handshaking.closeAll).Stop()
	if srv.httpSrv != nil {
		if err := srv.httpSrv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	drained := srv.mgr.DrainAll()
	if srv.opts.CheckpointDir != "" {
		if err := os.MkdirAll(srv.opts.CheckpointDir, 0o755); err != nil && firstErr == nil {
			firstErr = err
		}
		for _, s := range drained {
			if err := writeCheckpointFile(srv.opts.CheckpointDir, s); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	srv.wg.Wait()
	return firstErr
}

// writeCheckpointFile atomically writes one session's checkpoint,
// stamped with the model's content hash so a later resume against the
// wrong model fails loudly.
func writeCheckpointFile(dir string, s *Session) error {
	cp := s.ExportCheckpoint()
	if cp == nil {
		return nil
	}
	path := filepath.Join(dir, s.ID+".ckpt")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := coreobject.WriteCheckpoint(f, cp); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// UnusedConnGrace is how long a shutdown lets a connection that has
// sent nothing yet start a request or a stream handshake before it
// closes the connection. net/http counts such a connection as active
// for 5 s, and the stream plane waits StreamHandshakeTimeout for one.
const UnusedConnGrace = 100 * time.Millisecond

// unusedConns is a set of connections that have sent nothing yet.
// closeAll closes them, and every one added after it.
type unusedConns struct {
	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
}

func (u *unusedConns) add(c net.Conn) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		c.Close()
		return
	}
	if u.conns == nil {
		u.conns = make(map[net.Conn]bool)
	}
	u.conns[c] = true
}

func (u *unusedConns) remove(c net.Conn) {
	u.mu.Lock()
	delete(u.conns, c)
	u.mu.Unlock()
}

func (u *unusedConns) closeAll() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.closed = true
	for c := range u.conns {
		c.Close()
	}
}

// HTTPServer is the control plane's http.Server, the daemon's and the
// coordinator's: its Shutdown closes the connections that have sent no
// request UnusedConnGrace after it begins.
type HTTPServer struct {
	http.Server
	unused unusedConns
}

// NewHTTPServer returns an HTTPServer serving h.
func NewHTTPServer(h http.Handler) *HTTPServer {
	hs := &HTTPServer{}
	hs.Handler = h
	hs.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			hs.unused.add(c)
		} else {
			hs.unused.remove(c)
		}
	}
	return hs
}

// Shutdown is http.Server.Shutdown: ctx bounds the wait for requests in
// flight.
func (hs *HTTPServer) Shutdown(ctx context.Context) error {
	defer time.AfterFunc(UnusedConnGrace, hs.unused.closeAll).Stop()
	return hs.Server.Shutdown(ctx)
}
