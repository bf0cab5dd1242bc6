package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"pagerankvm/internal/deschedule"
	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/serve"
)

// benchShards pins the daemon to the library default shard count, so
// results do not depend on the machine's CPU count.
const benchShards = 4

// daemon is one serve.Server behind a net/http server on a loopback
// listener.
type daemon struct {
	cat    *experiments.Catalog
	reg    *ranktable.Registry
	cache  ranktable.CacheStats
	cfg    serve.Config
	srv    *serve.Server
	hs     *http.Server
	served chan error
	addr   string
	spans  *spanRecorder // non-nil in traced runs
	newDur time.Duration // serve.New alone
}

// serveConfig is the daemon configuration every run uses: four shards,
// WAL on with the default flush policy (buffered write, no fsync),
// greedy group commit, and periodic snapshots off so the WAL holds
// every op from the empty start; the benchmark cuts the one snapshot
// recovery loads itself.
func (w workload) serveConfig(d *daemon, dir string, o *obs.Observer) serve.Config {
	return serve.Config{
		Rankers:        d.reg,
		PMs:            d.cat.BuildCluster(w.perType).PMs(),
		NewVM:          d.cat.NewVM,
		Shards:         benchShards,
		DataDir:        dir,
		SnapshotEvery:  -1,
		Obs:            o,
		RebalanceEvery: w.rebalanceEvery,
		Rebalance:      deschedule.Config{DrainBelow: w.drainBelow},
	}
}

// startDaemon builds the catalog and rank tables, starts serve.New on
// an empty data dir behind a loopback HTTP server, and returns once
// /healthz answers. The elapsed time is the workload's set-up time.
func startDaemon(w workload, dir string, traced bool, base time.Time) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d := &daemon{served: make(chan error, 1)}
	var err error
	if d.cat, err = w.catalog(); err != nil {
		return nil, 0, err
	}
	cache := ranktable.NewCache(0, nil)
	if d.reg, err = d.cat.BuildRegistry(ranktable.Options{Cache: cache}); err != nil {
		return nil, 0, err
	}
	d.cache = cache.Stats()
	var o *obs.Observer
	if traced {
		o = obs.New()
	}
	d.cfg = w.serveConfig(d, dir, o)
	tNew := time.Now()
	if d.srv, err = serve.New(d.cfg); err != nil {
		return nil, 0, err
	}
	d.newDur = time.Since(tNew)
	var h http.Handler = d.srv
	if traced {
		d.spans = newSpanRecorder(d.srv, base)
		h = d.spans
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Kill()
		return nil, 0, err
	}
	d.addr = ln.Addr().String()
	d.hs = &http.Server{Handler: h}
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := waitHealthy(d.addr); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(addr string) error {
	var last error
	for i := 0; i < 100; i++ {
		c, err := dial(addr, nil)
		if err == nil {
			var status int
			status, _, err = c.get("/healthz")
			c.close()
			if err == nil && status == 200 {
				return nil
			}
			if err == nil {
				err = fmt.Errorf("healthz status %d", status)
			}
		}
		last = err
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy: %w", last)
}

// stop closes the HTTP server and kills the daemon without a final
// snapshot, as a crash would.
func (d *daemon) stop() {
	_ = d.hs.Close() // closes the listener and every connection
	<-d.served
	d.srv.Kill()
}

// listing returns GET /v1/cluster?vms=1 served in-process.
func listing(h http.Handler) (serve.ClusterResponse, error) { return cluster(h, "/v1/cluster?vms=1") }

// cluster returns a GET /v1/cluster response served in-process.
func cluster(h http.Handler, target string) (serve.ClusterResponse, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	var resp serve.ClusterResponse
	if rec.Code != http.StatusOK {
		return resp, fmt.Errorf("cluster listing: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return resp, fmt.Errorf("cluster listing: %w", err)
	}
	return resp, nil
}
