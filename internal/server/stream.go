package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/cognitive-sim/compass/internal/spikeio"
)

// The stream plane's wire protocol. A client connects to the stream
// listener, sends one handshake, and then speaks length-prefixed frames
// of CSPK-shaped spike records (spikeio.RecordSize bytes each) in
// either or both directions:
//
//	handshake (client → server):
//	    "CSTR"  u8 version  u8 flags  u16le idLen  idLen×id bytes
//	reply (server → client):
//	    "CSOK"                         — accepted
//	    "CERR"  u16le msgLen  msg      — rejected, connection closes
//	frames (both directions, after acceptance):
//	    u32le recordCount  recordCount×14-byte records
//
// With StreamFlagInject set, client frames are queued for injection at
// the session's next tick boundary. With StreamFlagSubscribe set, the
// server pushes the session's fired spikes as frames; a slow consumer's
// queue evicts oldest-first and the evictions are counted in the
// session's stream_dropped_records (and compassd_stream_dropped_records_total).
// A zero-count frame is a no-op keepalive in either direction.
const (
	streamMagic   = "CSTR"
	streamOK      = "CSOK"
	streamErrTag  = "CERR"
	streamVersion = 1

	// StreamFlagInject requests client→session spike injection.
	StreamFlagInject byte = 1 << 0
	// StreamFlagSubscribe requests session→client spike egress.
	StreamFlagSubscribe byte = 1 << 1

	// maxFrameRecords bounds one frame (16 MiB of records) so a corrupt
	// length prefix cannot demand an absurd allocation.
	maxFrameRecords = 1 << 20

	// StreamHandshakeTimeout bounds how long an idle pre-handshake
	// connection may hold a goroutine.
	StreamHandshakeTimeout = 10 * time.Second

	// egressBatch is the writer's maximum records per frame.
	egressBatch = 4096
)

// serveStreamConn handles one data-plane connection end to end.
func (srv *Server) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(StreamHandshakeTimeout))
	flags, id, err := ReadStreamHandshake(conn)
	if err != nil {
		WriteStreamReject(conn, err)
		return
	}
	sess, err := srv.mgr.Get(id)
	if err != nil {
		WriteStreamReject(conn, err)
		return
	}
	if flags&(StreamFlagInject|StreamFlagSubscribe) == 0 {
		WriteStreamReject(conn, fmt.Errorf("server: handshake requests neither inject nor subscribe"))
		return
	}
	conn.SetReadDeadline(time.Time{})
	// Register the subscription before acknowledging the handshake, so a
	// client that attaches to a parked session and then resumes it is
	// guaranteed the subscriber existed before the first tick ran.
	var sub *subscriber
	if flags&StreamFlagSubscribe != 0 {
		sub = sess.sink.subscribe()
		defer sess.sink.unsubscribe(sub)
	}
	if err := WriteStreamOK(conn); err != nil {
		return
	}

	// The reader consumes inject frames (or just watches for the peer
	// closing the connection) on its own goroutine, so this goroutine is
	// free to react when the egress writer finishes.
	var violation bool
	readerDone := make(chan struct{})
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		defer close(readerDone)
		// A peer that merely stops — half-close or broken connection —
		// keeps its egress; one that breaks the protocol forfeits it.
		err := ReadInjectFrames(conn, flags&StreamFlagInject != 0, sess.source.Inject)
		violation = errors.Is(err, ErrStreamProtocol)
	}()

	if sub == nil {
		<-readerDone
		return
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeEgress(conn, sub)
	}()

	select {
	case <-writerDone:
		// Egress exhausted: the session ended (or the write side broke).
		// Half-close our write side so the client reads a clean EOF
		// immediately, then drain the ingest reader under a deadline
		// before the full close, so inject frames already on the wire are
		// processed first (closing with unread data would send a reset
		// instead). A peer that never half-closes is cut off when the
		// deadline expires.
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(StreamHandshakeTimeout))
		<-readerDone
		return
	case <-readerDone:
		if violation {
			// A misbehaving peer loses its stream immediately.
			sess.sink.unsubscribe(sub)
			<-writerDone
			return
		}
		// A clean half-close keeps egress flowing: the writer runs until
		// the session ends or the write side of the connection fails.
		<-writerDone
	}
}

// WriteStreamOK acknowledges a stream handshake.
func WriteStreamOK(w io.Writer) error {
	_, err := w.Write([]byte(streamOK))
	return err
}

// ReadStreamHandshake parses the client hello. It, WriteStreamOK,
// WriteStreamReject and ReadInjectFrames are exported for the cluster
// coordinator's stream proxy, which terminates the same protocol.
func ReadStreamHandshake(r io.Reader) (flags byte, id string, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", fmt.Errorf("server: handshake read: %w", err)
	}
	if string(hdr[:4]) != streamMagic {
		return 0, "", fmt.Errorf("server: bad handshake magic %q", hdr[:4])
	}
	if hdr[4] != streamVersion {
		return 0, "", fmt.Errorf("server: unsupported stream version %d", hdr[4])
	}
	flags = hdr[5]
	idLen := binary.LittleEndian.Uint16(hdr[6:])
	if idLen == 0 || idLen > 256 {
		return 0, "", fmt.Errorf("server: session id length %d out of range", idLen)
	}
	idBuf := make([]byte, idLen)
	if _, err := io.ReadFull(r, idBuf); err != nil {
		return 0, "", fmt.Errorf("server: handshake id read: %w", err)
	}
	return flags, string(idBuf), nil
}

// WriteStreamReject sends a CERR reply; the caller closes the
// connection after.
func WriteStreamReject(w io.Writer, err error) {
	msg := err.Error()
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	buf := make([]byte, 4+2+len(msg))
	copy(buf, streamErrTag)
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(msg)))
	copy(buf[6:], msg)
	w.Write(buf)
}

// ErrStreamProtocol is ReadInjectFrames' error for a peer that broke
// the frame protocol, as opposed to one that merely stopped.
var ErrStreamProtocol = errors.New("server: stream protocol violation")

// ReadInjectFrames consumes a client's frames, handing each batch of
// records to deliver (which must not keep the slice), until the stream
// ends. It returns nil for a clean EOF at a frame boundary (the peer
// half-closed, or never wrote), ErrStreamProtocol for an oversized
// frame or a non-empty frame from a subscribe-only peer, and the read
// error for a stream that broke off. The daemon and the coordinator's
// stream proxy both read untrusted client bytes through it.
func ReadInjectFrames(r io.Reader, inject bool, deliver func([]spikeio.Event)) error {
	var lenBuf [4]byte
	recBuf := make([]byte, egressBatch*spikeio.RecordSize)
	events := make([]spikeio.Event, 0, egressBatch)
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		count := binary.LittleEndian.Uint32(lenBuf[:])
		if count == 0 {
			continue // keepalive
		}
		if count > maxFrameRecords {
			return fmt.Errorf("%w: frame of %d records exceeds limit", ErrStreamProtocol, count)
		}
		if !inject {
			return fmt.Errorf("%w: records from a subscribe-only peer", ErrStreamProtocol)
		}
		remaining := int(count)
		for remaining > 0 {
			n := remaining
			if n > egressBatch {
				n = egressBatch
			}
			chunk := recBuf[:n*spikeio.RecordSize]
			if _, err := io.ReadFull(r, chunk); err != nil {
				return err
			}
			events = events[:0]
			for i := 0; i < n; i++ {
				events = append(events, spikeio.DecodeRecord(chunk[i*spikeio.RecordSize:]))
			}
			deliver(events)
			remaining -= n
		}
	}
}

// writeEgress drains the subscriber into frames until it closes (the
// connection dropped, the client unsubscribed, or the session ended)
// or the connection breaks.
func writeEgress(w io.Writer, sub *subscriber) {
	batch := make([]spikeio.Event, 0, egressBatch)
	buf := make([]byte, 4+egressBatch*spikeio.RecordSize)
	for {
		out := sub.next(batch)
		if out == nil {
			return
		}
		binary.LittleEndian.PutUint32(buf, uint32(len(out)))
		for i, ev := range out {
			spikeio.EncodeRecord(buf[4+i*spikeio.RecordSize:], ev)
		}
		if _, err := w.Write(buf[:4+len(out)*spikeio.RecordSize]); err != nil {
			return
		}
	}
}

// acceptStreams accepts data-plane connections until the listener
// closes.
func (srv *Server) acceptStreams(ln net.Listener) {
	defer srv.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.serveStreamConn(conn)
		}()
	}
}
