package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"

	"mrm"
	"mrm/internal/cluster"
	"mrm/internal/llm"
	"mrm/internal/server"
	"mrm/internal/tier"
)

// mrmdConfig is the open-loop workload against an in-process mrmd server
// with mrmdNodes HBM+MRM nodes.
type mrmdConfig struct {
	seed   uint64
	rate   float64       // nominal request rate, req/s (Poisson arrivals)
	warmup time.Duration // requests scheduled earlier are left out of the latency figures
}

const (
	mrmdNodes  = 2
	mrmdSetups = 31 // server constructions timed for setup_s
)

// mrmdCode: two HBM+MRM nodes with mrmd's default queue and batch, fed
// Splitwise-code requests (about 1,930-token prompts and 13-token outputs)
// at a fixed 75 req/s. KV writes at admission dominate the memory work.
func mrmdCode(seed uint64) mrmdConfig {
	return mrmdConfig{seed: seed, rate: 75, warmup: time.Second}
}

// daemon is one running server: mrmd's handler on the benchmark's own
// listener, speaking unencrypted HTTP/2 so that in-flight requests are not
// capped by the connection count.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	lis  net.Listener
	done chan error
	mems []*tier.Manager // every manager the node factory made, rebuilds included
	mu   sync.Mutex      // guards mems
}

// startDaemon builds the server (nodes as cmd/mrmd builds them) and starts
// serving it.
func startDaemon(traced bool) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	build := func(int) (server.Node, error) {
		m, scratch, err := buildMemory(mrm.HBMPlusMRM, traced)
		if err != nil {
			return server.Node{}, err
		}
		d.mu.Lock()
		d.mems = append(d.mems, m)
		d.mu.Unlock()
		sim, err := cluster.NewSim(cluster.Config{
			Model: llm.Llama27B, Acc: llm.B200, Memory: m,
			PageTokens: 16, MaxBatch: 8, KVLifetime: 30 * time.Minute, ScratchTier: scratch,
		})
		if err != nil {
			return server.Node{}, err
		}
		return server.Node{Sim: sim, Mem: m}, nil
	}
	srv, err := server.New(server.Config{Build: build, Nodes: mrmdNodes})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(nil)
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.srv, d.lis = srv, lis
	d.hs = &http.Server{Handler: srv.Handler(), Protocols: h2c(), HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 4096}}
	go func() { d.done <- d.hs.Serve(lis) }()
	return d, nil
}

// stop drains the server (mrmd's graceful Shutdown), then closes the HTTP
// side and waits for Serve to return. It reports the drain's error.
func (d *daemon) stop() error {
	drainErr := d.srv.Shutdown(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
	return drainErr
}

func h2c() *http.Protocols {
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	return p
}

// runMrmd times server construction, then has a separate load-generator
// process (loadgen.go) send a seeded Poisson schedule of Splitwise-code
// requests open loop for the budget, each timed from its scheduled send, and
// drains the server. The generator runs in its own process, as a real
// client would, so that its timers do not queue behind the server's
// goroutines for this process's Ps and its allocation does not drive the
// server's GC.
func runMrmd(c mrmdConfig, budget time.Duration, traced bool) (outcome, error) {
	o := outcome{metrics: metricSet{}}
	setups := make([]float64, 0, mrmdSetups)
	var d *daemon
	for i := 0; i < mrmdSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return o, fmt.Errorf("spare server drain: %w", err)
			}
		}
		// Each construction starts from a collected heap, as each fleet
		// does, so a GC cycle left over from the last one is not timed.
		settle()
		start := time.Now()
		var err error
		if d, err = startDaemon(traced); err != nil {
			return o, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	settle()

	// The queue-depth gauge is sampled every millisecond while the load runs.
	depth := d.srv.Metrics().Gauge("mrmd_queue_depth")
	var depthMax float64
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				depthMax = max(depthMax, depth.Value())
			}
		}
	}()

	g0, c0 := readGoStats(), cpuTime()
	start := time.Now()
	samples, lgErr := runLoadgenProcess(loadgenConfig{
		Addr: d.lis.Addr().String(), Seed: c.seed, Rate: c.rate, Seconds: budget.Seconds(),
	}, budget+60*time.Second)
	elapsed := time.Since(start)
	cpu := cpuTime() - c0
	gcCPU, allocMB, mallocs := goDelta(g0, readGoStats())
	close(stopSampling)
	<-sampled
	if err := d.stop(); err != nil {
		o.fail("server drain: %v", err)
	}
	if lgErr != nil {
		return o, lgErr
	}

	o.attempted = int64(len(samples))
	var lat, wall, over, lag []float64
	okN := 0
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for i, s := range samples {
		if s.Err != "" {
			o.fail("request %d: %s", i, s.Err)
			continue
		}
		okN++
		if time.Duration(s.DueNS) < c.warmup {
			continue
		}
		lat = append(lat, ms(s.LatencyNS))
		wall = append(wall, ms(s.WallNS))
		over = append(over, ms(s.OverheadNS))
		lag = append(lag, ms(s.LagNS))
	}
	m := o.metrics
	if !traced {
		m.set("setup_s", median(setups))
		m.set("replay_req_per_s", float64(okN)/elapsed.Seconds())
		m.set("peak_rss_mb", peakRSSMB())
		m.set("req_p50_ms", quantile(lat, 0.5))
		return o, nil
	}
	tt := newTierTrace()
	for _, mem := range d.mems {
		tt.collect(mem.Backends())
	}
	tt.metrics(m)
	reg := d.srv.Metrics()
	m.set("server.wall_p50_ms", quantile(wall, 0.5))
	m.set("server.wall_p99_ms", quantile(wall, 0.99))
	m.set("server.http_overhead_p50_ms", quantile(over, 0.5))
	m.set("server.rejected", float64(reg.Counter("mrmd_rejected_full_total").Value()+reg.Counter("mrmd_rejected_draining_total").Value()))
	m.set("server.timeouts", float64(reg.Counter("mrmd_timeouts_total").Value()))
	m.set("server.retries", float64(reg.Counter("mrmd_retries_total").Value()))
	m.set("server.queue_depth_max", depthMax)
	m.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
	m.set("loadgen.req_p90_ms", quantile(lat, 0.9))
	m.set("loadgen.req_p99_ms", quantile(lat, 0.99))
	m.set("cluster.replay.cpu_s", cpu.Seconds())
	if cpu > 0 {
		m.set("go.gc_cpu_frac", gcCPU/cpu.Seconds())
	}
	m.set("go.alloc_mb", allocMB)
	m.set("go.mallocs", mallocs)
	return o, nil
}

// runLoadgenProcess runs the load generator as a child process of this
// binary (loadgenEnv carries its configuration) and returns its samples.
// The child is killed if it outlives the deadline, and always waited for.
func runLoadgenProcess(cfg loadgenConfig, deadline time.Duration) ([]loadSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	spec, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), loadgenEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var samples []loadSample
	if err := json.Unmarshal(out, &samples); err != nil {
		return nil, fmt.Errorf("load generator output: %w", err)
	}
	return samples, nil
}
