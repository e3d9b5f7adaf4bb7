// Command cqjoind runs a continuous-join overlay as a network service:
// clients connect over TCP and speak a newline-delimited JSON protocol to
// pose continuous queries, insert tuples and stream notifications.
//
//	cqjoind -addr 127.0.0.1:7470 -nodes 256 -algorithm dait \
//	        -schema "Orders(Id,Customer,Product);Shipments(Id,Product,Depot)"
//
// Protocol (one JSON object per line):
//
//	-> {"op":"subscribe","node":0,"sql":"SELECT ... WHERE ..."}
//	<- {"ok":true,"key":"peer40#1"}
//	-> {"op":"publish","node":1,"relation":"Orders","values":[1,"acme","widget"]}
//	<- {"ok":true,"pubt":12}
//	-> {"op":"listen"}
//	<- {"ok":true}
//	<- {"event":"notification","query":"peer40#1","subscriber":"peer40","values":["acme","rotterdam"]}
//	-> {"op":"unsubscribe","key":"peer40#1"}
//	-> {"op":"stats"}
//	<- {"ok":true,"nodes":256,"notifications":1,"hops":62,"messages":19,"bytes":38197,
//	    "chord":{"chord.msgs.al-index":6,"chord.hops.al-index":24,"chord.bytes.al-index":1428,...,
//	    "chord.handbacks":0},"engine":{...},...}
//
// The stats reply has one section per layer; "chord" splits the messages,
// hops and bytes above by message kind, and each family sums to its total.
//
// By default the overlay runs in-process (the library's simulator). With
// -overlay and -peers, N cqjoind processes form one overlay: every
// process builds the identical ring, and ring positions are owned by the
// process whose hashed address is their clockwise successor (consistent
// hashing over the membership view), so deliveries to nodes owned by
// another process cross the wire through the framed TCP transport.
//
// Membership is dynamic. -join copies the overlay configuration and live
// peer list from a running peer's client port; if this process is not
// already in that list it enters the running overlay through the join
// protocol (admission, view gossip, state hand-off) without restarting
// anyone. -leave asks a running daemon to depart voluntarily, handing its
// arcs to the survivors, and exits:
//
//	cqjoind -addr :7470 -overlay 10.0.0.1:7570 \
//	        -peers 10.0.0.1:7570,10.0.0.2:7570 -schema "R(A,B);S(D,E)"
//	cqjoind -addr :7470 -overlay 10.0.0.3:7570 -join 10.0.0.1:7470
//	cqjoind -leave 10.0.0.3:7470
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cqjoin/internal/daemon"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7470", "listen address")
		nodes     = flag.Int("nodes", 128, "overlay size")
		algorithm = flag.String("algorithm", "sai", "sai | daiq | dait | daiv")
		schema    = flag.String("schema", "", `catalog, e.g. "R(A,B);S(D,E)"`)
		jfrt      = flag.Bool("jfrt", true, "enable the Join Fingers Routing Table")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		hotThresh = flag.Int("hot-threshold", 0, "arm adaptive hot-key sharding at this per-window event count (0 disables; SAI only)")
		hotRepl   = flag.Int("hot-replicas", 0, "hot-key replica-group size (0 = default)")
		overlay   = flag.String("overlay", "", "inter-node transport listen address (multi-process mode)")
		peers     = flag.String("peers", "", "comma-separated overlay addresses of every process, identical order everywhere")
		join      = flag.String("join", "", "client address of a running peer to copy the overlay configuration from (and enter its overlay when -overlay is set)")
		leave     = flag.String("leave", "", "client address of a running daemon that should leave its overlay; acts as a one-shot command")
		stateDir  = flag.String("state-dir", "", "directory for the write-ahead log and snapshots; state found there is replayed on start (empty: fully in-memory)")
	)
	flag.Parse()
	if *leave != "" {
		if err := requestLeave(*leave); err != nil {
			log.Fatalf("cqjoind: -leave %s: %v", *leave, err)
		}
		log.Printf("cqjoind: %s left its overlay", *leave)
		return
	}
	cfg := daemon.Config{
		Nodes:           *nodes,
		Algorithm:       *algorithm,
		SchemaDSL:       *schema,
		UseJFRT:         *jfrt,
		Seed:            *seed,
		HotKeyThreshold: *hotThresh,
		HotKeyReplicas:  *hotRepl,
		OverlayAddr:     *overlay,
		StateDir:        *stateDir,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if *join != "" {
		if err := copyOverlayConfig(*join, &cfg); err != nil {
			log.Fatalf("cqjoind: -join %s: %v", *join, err)
		}
		// A process already in the live peer list is a configured member
		// rebooting; anyone else enters through the join protocol.
		if cfg.OverlayAddr != "" {
			cfg.JoinExisting = true
			for _, p := range cfg.Peers {
				if p == cfg.OverlayAddr {
					cfg.JoinExisting = false
					break
				}
			}
		}
	}
	if cfg.SchemaDSL == "" {
		fmt.Fprintln(os.Stderr, "cqjoind: -schema is required (or -join a peer that has one)")
		flag.Usage()
		os.Exit(2)
	}
	srv, err := daemon.New(cfg)
	if err != nil {
		log.Fatalf("cqjoind: %v", err)
	}
	if cfg.StateDir != "" {
		info := srv.Recovery()
		log.Printf("cqjoind: durable state in %s (snapshot lsn %d, %d wal records replayed)",
			cfg.StateDir, info.SnapshotLSN, info.Replayed)
	}
	if cfg.OverlayAddr != "" {
		oln, err := net.Listen("tcp", cfg.OverlayAddr)
		if err != nil {
			log.Fatalf("cqjoind: overlay: %v", err)
		}
		if err := srv.StartOverlay(oln); err != nil {
			log.Fatalf("cqjoind: overlay: %v", err)
		}
		log.Printf("cqjoind: overlay transport on %s (%d peers)", cfg.OverlayAddr, len(cfg.Peers))
		if cfg.JoinExisting {
			if err := joinOverlay(srv, cfg.Peers); err != nil {
				log.Fatalf("cqjoind: %v", err)
			}
			log.Printf("cqjoind: joined the running overlay as %s", cfg.OverlayAddr)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cqjoind: %v", err)
	}
	log.Printf("cqjoind: %d-node overlay (%s), listening on %s", cfg.Nodes, cfg.Algorithm, ln.Addr())

	// SIGINT/SIGTERM run the same graceful path as -leave: depart the
	// overlay, drain client connections, checkpoint and close the durable
	// store — no acknowledged operation is lost to the signal.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	errC := make(chan error, 1)
	go func() { errC <- srv.Serve(ln) }()
	select {
	case err := <-errC:
		if err != nil {
			log.Fatalf("cqjoind: %v", err)
		}
	case sig := <-sigC:
		log.Printf("cqjoind: %v: leaving overlay and flushing state", sig)
		if err := srv.Shutdown(); err != nil {
			log.Printf("cqjoind: shutdown: %v", err)
		}
		log.Printf("cqjoind: shutdown complete")
	}
}

// joinOverlay enters the running overlay through the first member that
// admits this process.
func joinOverlay(srv *daemon.Server, peers []string) error {
	var lastErr error
	for _, p := range peers {
		if err := srv.JoinOverlay(p); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("daemon: no peers to join through")
	}
	return lastErr
}

// requestLeave asks a running daemon's client port to leave its overlay.
func requestLeave(peer string) error {
	conn, err := net.DialTimeout("tcp", peer, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintln(conn, `{"op":"leave"}`); err != nil {
		return err
	}
	var resp struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("peer refused: %s", resp.Error)
	}
	return nil
}

// copyOverlayConfig asks a running peer's client port for its overlay
// configuration and fills cfg with it, keeping this process's own
// -overlay address.
func copyOverlayConfig(peer string, cfg *daemon.Config) error {
	conn, err := net.DialTimeout("tcp", peer, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintln(conn, `{"op":"overlay-config"}`); err != nil {
		return err
	}
	var resp struct {
		OK           bool     `json:"ok"`
		Error        string   `json:"error"`
		Nodes        int      `json:"nodes"`
		Algorithm    string   `json:"algorithm"`
		Schema       string   `json:"schema"`
		JFRT         bool     `json:"jfrt"`
		Seed         int64    `json:"seed"`
		HotThreshold int      `json:"hot_threshold"`
		HotReplicas  int      `json:"hot_replicas"`
		Peers        []string `json:"peers"`
	}
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("peer refused: %s", resp.Error)
	}
	cfg.Nodes = resp.Nodes
	cfg.Algorithm = resp.Algorithm
	cfg.SchemaDSL = resp.Schema
	cfg.UseJFRT = resp.JFRT
	cfg.Seed = resp.Seed
	cfg.HotKeyThreshold = resp.HotThreshold
	cfg.HotKeyReplicas = resp.HotReplicas
	cfg.Peers = resp.Peers
	return nil
}
