package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/cognitive-sim/compass/internal/spikeio"
)

// Client is the typed control-plane client. A coordinator serves the
// daemon's session routes unchanged, so the same client drives either;
// the cluster's own node agents and coordinator are built on it too.
type Client struct {
	addr string
	hc   *http.Client
}

// NewClient returns a client for the control plane at addr; timeout
// bounds each call (a step holds its request until the ticks resolve).
func NewClient(addr string, timeout time.Duration) *Client {
	return &Client{addr: addr, hc: &http.Client{Timeout: timeout}}
}

// CloseIdleConnections closes the client's idle keep-alive connections
// (those of the process-wide default transport it dials through).
func (c *Client) CloseIdleConnections() { c.hc.CloseIdleConnections() }

// StatusError is a non-2xx control-plane reply: the request it answers
// ("POST host:port/v1/sessions"), the HTTP status, and the message of
// the {"error": …} envelope (the status line when there is none).
type StatusError struct {
	Op      string
	Code    int
	Message string
}

func (e *StatusError) Error() string { return e.Op + ": " + e.Message }

// maxRawBody bounds a binary reply (checkpoint or model: 1 GiB).
const maxRawBody = 1 << 30

// Do issues one request, with body (when non-nil) as JSON, and reads
// the reply into out: a *[]byte receives the raw bytes, anything else
// is JSON-decoded, nil discards. A non-2xx reply is a *StatusError.
func (c *Client) Do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, "http://"+c.addr+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &env) != nil || env.Error == "" {
			env.Error = resp.Status
		}
		return &StatusError{Op: method + " " + c.addr + path, Code: resp.StatusCode, Message: env.Error}
	}
	switch out := out.(type) {
	case nil:
		// Read to the end so the connection is kept for the next call
		// (a heartbeat's every interval) instead of closed.
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	case *[]byte:
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxRawBody+1))
		if err == nil && len(raw) > maxRawBody {
			err = fmt.Errorf("server: %s %s reply exceeds %d bytes", c.addr, path, maxRawBody)
		}
		*out = raw
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// info issues a request whose reply is a session document.
func (c *Client) info(method, path string, body any) (*Info, error) {
	var info Info
	if err := c.Do(method, path, body, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Create admits a session.
func (c *Client) Create(req *CreateRequest) (*Info, error) {
	return c.info(http.MethodPost, "/v1/sessions", req)
}

// Info fetches a session's status document.
func (c *Client) Info(id string) (*Info, error) {
	return c.info(http.MethodGet, "/v1/sessions/"+id, nil)
}

// Lifecycle posts pause, resume or stop and returns the settled info.
func (c *Client) Lifecycle(id, verb string) (*Info, error) {
	return c.info(http.MethodPost, "/v1/sessions/"+id+"/"+verb, nil)
}

// Step grants the session a tick budget and returns the settled info
// (the request is held open until the budget resolves).
func (c *Client) Step(id string, req *StepRequest) (*Info, error) {
	return c.info(http.MethodPost, "/v1/sessions/"+id+"/step", req)
}

// ScenarioReport folds closed-loop progress into the hosting daemon's
// per-scenario telemetry.
func (c *Client) ScenarioReport(id string, req *ScenarioReportRequest) (*Info, error) {
	return c.info(http.MethodPost, "/v1/sessions/"+id+"/scenario-report", req)
}

// Checkpoint downloads the session's latest boundary checkpoint.
func (c *Client) Checkpoint(id string) ([]byte, error) {
	var raw []byte
	err := c.Do(http.MethodGet, "/v1/sessions/"+id+"/checkpoint", nil, &raw)
	return raw, err
}

// Delete stops and removes the session.
func (c *Client) Delete(id string) error {
	return c.Do(http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Export parks the session at its next chunk boundary and returns its
// portable state. Export, Import and Model are the migration surface,
// which only daemons serve.
func (c *Client) Export(id string) (*ExportDoc, error) {
	var doc ExportDoc
	if err := c.Do(http.MethodPost, "/v1/sessions/"+id+"/export", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Import recreates a session from an exported document.
func (c *Client) Import(req *ImportRequest) (*Info, error) {
	return c.info(http.MethodPost, "/v1/sessions/import", req)
}

// Model pulls a resident binary model by content hash. The caller
// verifies the rebuilt image's hash; this only moves bytes.
func (c *Client) Model(hash string) ([]byte, error) {
	var raw []byte
	err := c.Do(http.MethodGet, "/v1/models/"+hash, nil, &raw)
	return raw, err
}

// StreamClient is a minimal data-plane client: it performs the CSTR
// handshake and exchanges record frames. Tests, cmd/e2e and the
// scenario engine use it; it also documents the protocol from the
// client's side.
type StreamClient struct {
	conn net.Conn
	br   *bufio.Reader
}

// DialStream connects to a server's stream listener and binds to a
// session with the given flags (StreamFlagInject, StreamFlagSubscribe,
// or both).
func DialStream(addr, sessionID string, flags byte) (*StreamClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello := make([]byte, 8+len(sessionID))
	copy(hello, streamMagic)
	hello[4] = streamVersion
	hello[5] = flags
	binary.LittleEndian.PutUint16(hello[6:], uint16(len(sessionID)))
	copy(hello[8:], sessionID)
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	var reply [4]byte
	if _, err := io.ReadFull(br, reply[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: handshake reply: %w", err)
	}
	switch string(reply[:]) {
	case streamOK:
		return &StreamClient{conn: conn, br: br}, nil
	case streamErrTag:
		var lenBuf [2]byte
		msg := "handshake rejected"
		if _, err := io.ReadFull(br, lenBuf[:]); err == nil {
			buf := make([]byte, binary.LittleEndian.Uint16(lenBuf[:]))
			if _, err := io.ReadFull(br, buf); err == nil {
				msg = string(buf)
			}
		}
		conn.Close()
		return nil, fmt.Errorf("server: %s", msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("server: bad handshake reply %q", reply[:])
	}
}

// Send writes spike records for injection.
func (c *StreamClient) Send(events []spikeio.Event) error {
	return WriteStreamFrames(c.conn, events)
}

// WriteStreamFrames encodes records as frames of at most egressBatch
// records each; the coordinator's stream proxy relays egress with it.
func WriteStreamFrames(w io.Writer, events []spikeio.Event) error {
	for len(events) > 0 {
		n := min(len(events), egressBatch)
		buf := make([]byte, 4+n*spikeio.RecordSize)
		binary.LittleEndian.PutUint32(buf, uint32(n))
		for i, ev := range events[:n] {
			spikeio.EncodeRecord(buf[4+i*spikeio.RecordSize:], ev)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

// Recv reads one egress frame. It returns io.EOF once the server has
// closed the stream (session over) and all frames are consumed.
func (c *StreamClient) Recv() ([]spikeio.Event, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.br, lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return nil, err
	}
	count := binary.LittleEndian.Uint32(lenBuf[:])
	if count > maxFrameRecords {
		return nil, fmt.Errorf("server: frame of %d records exceeds limit", count)
	}
	out := make([]spikeio.Event, count)
	rec := make([]byte, spikeio.RecordSize)
	for i := range out {
		if _, err := io.ReadFull(c.br, rec); err != nil {
			return nil, fmt.Errorf("server: frame truncated at record %d: %w", i, err)
		}
		out[i] = spikeio.DecodeRecord(rec)
	}
	return out, nil
}

// CloseWrite half-closes the connection: the server sees end-of-inject
// while egress frames keep flowing. No-op error on non-TCP conns.
func (c *StreamClient) CloseWrite() error {
	if tc, ok := c.conn.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return fmt.Errorf("server: connection does not support half-close")
}

// Close tears the connection down.
func (c *StreamClient) Close() error { return c.conn.Close() }
