// Command compassd is the Compass simulation server: a long-running
// daemon hosting many concurrent simulation sessions with live spike
// streaming — and, with -coordinator, the cluster control plane that
// shards sessions across a fleet of such daemons.
//
// Control plane (HTTP+JSON on -listen):
//
//	POST   /v1/sessions                create a session (cocomac / spec / model source)
//	GET    /v1/sessions                list sessions
//	GET    /v1/sessions/{id}           session status
//	POST   /v1/sessions/{id}/pause     park at the next chunk boundary
//	POST   /v1/sessions/{id}/resume    release a paused session
//	POST   /v1/sessions/{id}/stop      cancel (context cancellation at a tick boundary)
//	POST   /v1/sessions/{id}/step      grant a tick budget, answer once it has simulated
//	POST   /v1/sessions/{id}/scenario-report  fold closed-loop progress into /metrics
//	GET    /v1/sessions/{id}/checkpoint  download the latest boundary checkpoint
//	POST   /v1/sessions/{id}/export    pause at a boundary and export portable state
//	POST   /v1/sessions/import         recreate a session from exported state
//	GET    /v1/models/{hash}           serve a resident model image by content hash
//	DELETE /v1/sessions/{id}           stop and remove
//	GET    /healthz                    liveness + node identity + session counts
//	GET    /metrics                    Prometheus text: server + every session's registry
//
// Data plane (length-prefixed binary frames on -stream-listen): see
// DESIGN.md §5e for the CSTR handshake and frame format.
//
// Cluster mode: `compassd -coordinator` serves the same session routes
// on -listen — create places the session on a node, the per-session
// routes (status, pause, resume, stop, step, scenario-report,
// checkpoint, delete) are reverse-proxied to the session's owner under
// a session ID that stays stable across migrations — plus, under
// /v1/cluster/, what a daemon has no counterpart for:
//
//	POST   /v1/cluster/nodes/register        a joining daemon announces itself
//	POST   /v1/cluster/nodes/heartbeat       load report + per-session pulses
//	POST   /v1/cluster/checkpoint            a node's per-chunk restore point
//	GET    /v1/cluster/nodes                 fleet status
//	POST   /v1/cluster/nodes/{id}/drain      migrate every session off a node
//	DELETE /v1/cluster/nodes/{id}            deregister
//	GET    /v1/cluster/sessions[/{id}]       owner node, generation, committed tick
//	POST   /v1/cluster/sessions/{id}/migrate move a live session
//
// and a session-following stream proxy on -stream-listen. It does not
// serve the list, export, import, model or metrics routes.
// `compassd -join <coordinator>` runs a normal daemon that registers
// itself, heartbeats load, and pushes per-chunk checkpoints so the
// coordinator can migrate or restore its sessions. See DESIGN.md §5h.
//
// SIGINT/SIGTERM shut down gracefully: a joined daemon first asks the
// coordinator to migrate its sessions away (rolling restart), then
// every remaining session drains to its next chunk boundary and writes
// a checkpoint to -checkpoint-dir, so a successor daemon can resume
// each session bit-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/cognitive-sim/compass/internal/cluster"
	"github.com/cognitive-sim/compass/internal/server"
)

func main() {
	var (
		listen    = flag.String("listen", ":7474", "HTTP control-plane listen address")
		stream    = flag.String("stream-listen", ":7475", "TCP stream data-plane listen address")
		ckptDir   = flag.String("checkpoint-dir", "checkpoints", "directory for drained-session checkpoints at shutdown")
		maxRun    = flag.Int("max-sessions", 16, "maximum concurrently running sessions")
		chunk     = flag.Int("chunk-ticks", 25, "default ticks per chunk (pause/checkpoint granularity)")
		queueCap  = flag.Int("subscriber-queue", 65536, "per-subscriber egress queue capacity in records")
		cacheB    = flag.Int64("model-cache-bytes", 2<<30, "model image cache byte budget (negative disables residency; in-flight dedup stays on)")
		memB      = flag.Int64("memory-budget-bytes", 0, "resident-byte admission budget across running sessions; shared images charged once (0 = unlimited)")
		addrFile  = flag.String("addr-file", "", "write the bound control and stream addresses to this file (for scripts using :0)")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "HTTP connection drain bound during shutdown")
		workers   = flag.Int("max-extra-workers", 0, "daemon-wide budget of extra worker goroutines shared by compiles, image builds, and session rank teams (0 = GOMAXPROCS, negative = unlimited)")

		// Cluster identity and membership.
		coordMode  = flag.Bool("coordinator", false, "run as the cluster coordinator instead of a simulation daemon")
		join       = flag.String("join", "", "coordinator control-plane address to register with (daemon mode)")
		nodeID     = flag.String("node-id", "", "stable instance ID for cluster membership (default: derived from hostname and listen address)")
		advertise  = flag.String("advertise-addr", "", "control-plane address other nodes should dial (default: the bound -listen address)")
		advStream  = flag.String("advertise-stream-addr", "", "stream-plane address other nodes should dial (default: the bound -stream-listen address)")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "coordinator: node heartbeat interval")
		lapse      = flag.Int("lapse-factor", 4, "coordinator: heartbeat intervals without contact before a node is declared dead")
		drainAfter = flag.Duration("cluster-drain-timeout", 60*time.Second, "joined daemon: bound on coordinator-driven migration of local sessions at SIGTERM")
	)
	flag.Parse()

	if *coordMode {
		runCoordinator(*listen, *stream, *addrFile, *heartbeat, *lapse)
		return
	}

	id := *nodeID
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		id = host + strings.NewReplacer(":", "-", "/", "-").Replace(*listen)
	}
	srv := server.New(server.Options{
		HTTPAddr:            *listen,
		StreamAddr:          *stream,
		CheckpointDir:       *ckptDir,
		NodeID:              id,
		AdvertiseHTTPAddr:   *advertise,
		AdvertiseStreamAddr: *advStream,
		Manager: server.ManagerOptions{
			MaxRunning:        *maxRun,
			ChunkTicks:        *chunk,
			SubscriberQueue:   *queueCap,
			ModelCacheBytes:   *cacheB,
			MemoryBudgetBytes: *memB,
			MaxExtraWorkers:   *workers,
		},
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "compassd:", err)
		os.Exit(1)
	}
	fmt.Printf("compassd: node %s, control plane on %s, stream plane on %s\n", id, srv.HTTPAddr(), srv.StreamAddr())
	writeAddrFile(*addrFile, srv.HTTPAddr(), srv.StreamAddr())

	var agent *cluster.Agent
	if *join != "" {
		var err error
		agent, err = cluster.StartAgent(*join, srv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compassd:", err)
			os.Exit(1)
		}
		fmt.Printf("compassd: joined cluster via %s\n", *join)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	if agent != nil {
		// Rolling restart: hand every session to another node before
		// shutting the daemon down. Anything the coordinator cannot move
		// drains to a local checkpoint below, same as standalone mode.
		fmt.Println("compassd: draining cluster sessions to other nodes...")
		if err := agent.Drain(*drainAfter); err != nil {
			fmt.Fprintln(os.Stderr, "compassd: cluster drain:", err)
		}
		agent.Stop()
	}
	fmt.Println("compassd: shutting down, draining sessions to checkpoints...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "compassd: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("compassd: bye")
}

// runCoordinator serves the cluster control plane until SIGINT/SIGTERM.
func runCoordinator(listen, stream, addrFile string, heartbeat time.Duration, lapse int) {
	c := cluster.NewCoordinator(cluster.Options{
		HTTPAddr:          listen,
		StreamAddr:        stream,
		HeartbeatInterval: heartbeat,
		LapseFactor:       lapse,
	})
	if err := c.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "compassd: coordinator:", err)
		os.Exit(1)
	}
	fmt.Printf("compassd: coordinator control plane on %s, stream proxy on %s\n", c.HTTPAddr(), c.StreamAddr())
	writeAddrFile(addrFile, c.HTTPAddr(), c.StreamAddr())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	fmt.Println("compassd: coordinator shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "compassd: coordinator shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("compassd: bye")
}

// writeAddrFile records the bound addresses in path, when one is given,
// via a temp file + rename so a watcher polling the path never reads a
// partial file. A failure ends the process.
func writeAddrFile(path, httpAddr, streamAddr string) {
	if path == "" {
		return
	}
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, []byte(fmt.Sprintf("http=%s\nstream=%s\n", httpAddr, streamAddr)), 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compassd: addr-file:", err)
		os.Exit(1)
	}
}
