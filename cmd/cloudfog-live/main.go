// Command cloudfog-live runs the CloudFog live plane over real sockets: a
// cloud server owning the authoritative game world, a coordinator placing
// players by signed session ticket, fog supernodes (workers) keeping world
// replicas via the update stream and streaming rendered video segments, and
// player clients issuing actions and measuring end-to-end response latency.
//
// Every role runs from one serializable live.Config, so the same binary
// deploys each process of a multi-machine topology:
//
//	cloudfog-live cloud       -config cloud.json
//	cloudfog-live coordinator -config coordinator.json [-report ledger.json]
//	cloudfog-live supernode   -config worker.json   (coord_addr ⇒ worker mode)
//	cloudfog-live player      -config player.json -duration 10s
//
// The demo subcommand runs a whole deployment in one process — cloud,
// coordinator, workers and players, with wide-area delays injected on the
// data path from the synthetic latency trace — and always places players
// through the coordinator. It takes one worker out mid-stream (or replays a
// chaos profile), prints each player's measured response latency against
// its game's requirement plus the update-vs-video bandwidth ledger, and
// exits non-zero unless every player completes and the session ledger
// reconciles:
//
//	cloudfog-live demo -workers 3 -players 6 -duration 4s
//	cloudfog-live demo -drain -lease 1s
//	cloudfog-live demo -players 4 -duration 5s -chaos default -transport udp
//
// Every subcommand takes -metrics-addr to serve a Prometheus-style text
// exposition of its instruments at /metrics while it runs.
package main

import (
	"fmt"
	"net"
	"net/http"
	"os"

	"cloudfog/internal/live"
	"cloudfog/internal/obs"
)

const usage = `usage:
  cloudfog-live demo [flags]                      one-process deployment through the coordinator
  cloudfog-live <cloud|coordinator|supernode|player> -config <json> [flags]

Run "cloudfog-live <subcommand> -h" for its flags.`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	sub, args := os.Args[1], os.Args[2:]
	var err error
	if sub == "demo" {
		err = runDemo(args)
	} else if role, perr := live.ParseRole(sub); perr == nil {
		err = runRole(role, args)
	} else {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudfog-live %s: %v\n", sub, err)
		os.Exit(1)
	}
}

// metricsOptions serves a fresh registry's Prometheus exposition at /metrics
// on addr until the process exits, and returns the option that attaches the
// registry to a role. An empty addr serves nothing and returns no options.
func metricsOptions(addr string) (*obs.Registry, []live.Option, error) {
	if addr == "" {
		return nil, nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics listener: %w", err)
	}
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	go http.Serve(ln, mux)
	fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	return reg, []live.Option{live.WithObs(reg)}, nil
}
