// Command bandana-router fronts a Bandana cluster: it scatter-gathers
// /v1/batch requests across the nodes owning each id's (table, id-range)
// partition, hedges slow primaries to their replicas, isolates node
// failures to per-id errors, and aggregates cluster health under /v1/stats.
//
// Membership comes from a cluster.json file (see internal/cluster.Config);
// SIGHUP re-reads it and atomically swaps the routing state without
// dropping in-flight requests:
//
//	bandana-router --addr :8080 --cluster cluster.json
//	kill -HUP $(pidof bandana-router)   # apply a membership edit
//
// Endpoints: GET /healthz, GET /v1/lookup, POST /v1/batch, GET /v1/stats.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bandana/internal/cluster"
	"bandana/internal/version"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		clusterPath = flag.String("cluster", "cluster.json", "cluster membership file (re-read on SIGHUP)")
		hedgeAfter  = flag.Duration("hedge-after", 20*time.Millisecond, "hedge to a replica when the primary is slower than this (negative disables)")
		nodeTimeout = flag.Duration("node-timeout", 2*time.Second, "per-node request timeout")
		maxInflight = flag.Int("max-inflight", 128, "max concurrent requests per node")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}

	cfg, err := cluster.LoadConfig(*clusterPath)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := cluster.NewRouter(cfg, cluster.RouterOptions{
		HedgeAfter:         *hedgeAfter,
		NodeTimeout:        *nodeTimeout,
		MaxInflightPerNode: *maxInflight,
	})
	if err != nil {
		log.Fatal(err)
	}

	// SIGHUP hot-reloads the membership; a bad file keeps the old state.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			next, err := cluster.LoadConfig(*clusterPath)
			if err != nil {
				log.Printf("SIGHUP reload rejected: %v", err)
				continue
			}
			if err := rt.Reload(next); err != nil {
				log.Printf("SIGHUP reload rejected: %v", err)
				continue
			}
			log.Printf("membership reloaded from %s (%d nodes)", *clusterPath, len(next.Nodes))
		}
	}()

	handler := http.Handler(rt.Handler())
	if *pprofOn {
		// Explicit registration (not the net/http/pprof DefaultServeMux side
		// effect) keeps profiling opt-in.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof profiling handlers enabled under /debug/pprof/")
	}
	// Listen before announcing, so the line below names the bound address
	// (--addr :0 picks a free port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpServer := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("received %s, shutting down", sig)
		_ = httpServer.Close()
	}()

	fmt.Printf("bandana-router listening on %s (%d nodes, hedge after %s)\n",
		ln.Addr(), len(cfg.Nodes), *hedgeAfter)
	if err := httpServer.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
