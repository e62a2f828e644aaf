package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"spammass/internal/obs"
	"spammass/internal/serve"
	"spammass/internal/shard"
)

// parseShards turns "u1,u2;u3" into [[u1 u2] [u3]].
func parseShards(spec string) ([][]string, error) {
	var topo [][]string
	for _, shardSpec := range strings.Split(spec, ";") {
		shardSpec = strings.TrimSpace(shardSpec)
		if shardSpec == "" {
			continue
		}
		var replicas []string
		for _, u := range strings.Split(shardSpec, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			replicas = append(replicas, u)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("shard %d of -shards has no replica URLs", len(topo))
		}
		topo = append(topo, replicas)
	}
	if len(topo) == 0 {
		return nil, errors.New("-shards names no shards")
	}
	return topo, nil
}

// runRouter is the -role=router main: mount a shard.Router behind the
// stock serve HTTP layer and run the health-probe loop until stop is
// canceled. A SIGHUP is logged and ignored: the router holds no
// snapshot to refresh.
func runRouter(stop context.Context, hup <-chan struct{}, addr, addrFile, shardsSpec string, probeInterval time.Duration, octx *obs.Context) {
	topo, err := parseShards(shardsSpec)
	if err != nil {
		die("parse -shards: %v", err)
	}
	router, err := shard.NewRouter(shard.Config{
		Shards:        topo,
		ProbeInterval: probeInterval,
		Obs:           octx,
	})
	if err != nil {
		die("router: %v", err)
	}
	srv := serve.NewServer(nil, nil, serve.Config{
		Obs:     octx,
		Tracing: true,
		Backend: router,
		Routes: map[string]http.HandlerFunc{
			"POST /admin/delta": router.HandleDelta,
			"GET /admin/status": router.HandleStatus,
		},
	})
	go func() {
		for range hup {
			fmt.Fprintln(os.Stderr, "spamserver: SIGHUP ignored: the router holds no snapshot to refresh")
		}
	}()
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		router.Run(stop)
	}()
	replicas := 0
	for _, urls := range topo {
		replicas += len(urls)
	}
	serveHTTP(stop, addr, addrFile, srv.Handler(),
		fmt.Sprintf("routing %d shards (%d replicas)", len(topo), replicas))
	<-probesDone
}
