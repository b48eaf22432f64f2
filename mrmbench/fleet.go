package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"mrm"
	"mrm/internal/cluster"
	"mrm/internal/dist"
	"mrm/internal/llm"
	"mrm/internal/tier"
)

// minReplays is the fewest replays a fleet run medians over, however short
// its budget, not counting the warm-up replay.
const minReplays = 3

// fleetDay is DefaultFleetDayParams' traffic shape (Splitwise-conv, mix
// 0.5/0.3/0.2, Llama2-7B on B200, MaxBatch 16, PageTokens 16) at 0.025 req/s
// per node, resized to nodes × dur on the given memory system.
func fleetDay(seed uint64, nodes int, dur time.Duration, mem mrm.MemoryConfig, window int) mrm.FleetDayParams {
	p := mrm.DefaultFleetDayParams()
	p.Nodes = nodes
	p.Rate = 0.025 * float64(nodes)
	p.Duration = dur
	p.Memory = mem
	p.Seed = seed
	p.Window = window
	return p
}

// fleetHBM: 1000 HBM-only nodes, 20 simulated minutes (30,000 requests).
// Node work is cheap, so generation, placement, the sweep pool and memdev
// HBM reads carry the run; core and controller never run.
func fleetHBM(seed uint64) mrm.FleetDayParams {
	return fleetDay(seed, 1000, 20*time.Minute, mrm.HBMOnly, 1024)
}

// fleetMRM: the same per-node traffic on 100 HBM+MRM nodes for a fixed 10
// simulated minutes (1,500 requests). MRM housekeeping runs per simulated
// step, so host cost per request depends on the day length: the length is
// part of the workload, not a knob.
func fleetMRM(seed uint64) mrm.FleetDayParams {
	return fleetDay(seed, 100, 10*time.Minute, mrm.HBMPlusMRM, 128)
}

// requests is the day's request count, computed as mrm.RunFleetDay does.
func requests(p mrm.FleetDayParams) int { return int(p.Rate * p.Duration.Seconds()) }

func dayStream(p mrm.FleetDayParams) (*cluster.Stream, error) {
	gen := cluster.Generator{
		Workload:   llm.SplitwiseConv,
		RatePerSec: p.Rate,
		Mix:        p.Mix,
		MaxContext: p.Model.MaxContext,
	}
	return gen.Stream(dist.NewRNG(p.Seed), requests(p))
}

// replayStats is one replay's measurements.
type replayStats struct {
	res     cluster.FleetResult
	digest  string
	setup   time.Duration
	wall    time.Duration
	cpu     time.Duration
	windows []float64         // host ms between window dispatches (Fleet.Progress calls)
	done    [][]time.Duration // per node: host time from replay start to each completion
	gen     time.Duration     // standalone drain of Stream.GenerateBlock (traced only)
	gcCPU   float64
	allocMB float64
	mallocs float64
	tiers   *tierTrace // nil unless traced
}

// completion is the q-quantile, in ms, of the host time from the start of
// the replay until a request's completion was reported: when the results
// for that share of the day's requests were available.
func (st replayStats) completion(q float64) float64 {
	var ms []float64
	for _, node := range st.done {
		for _, d := range node {
			ms = append(ms, float64(d)/1e6)
		}
	}
	return quantile(ms, q)
}

// digest hashes every simulated field of a fleet result: per-node results,
// aggregates and latency histograms (fmt prints map keys sorted and floats
// at full precision).
func digest(res cluster.FleetResult) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res))))
}

// replay builds a fleet and replays the day once. Traced, the nodes get the
// benchmark's own wrapped memory and the generator is drained once more on
// its own to time it.
func replay(p mrm.FleetDayParams, workers int, traced bool) (replayStats, error) {
	var st replayStats
	src, err := dayStream(p)
	if err != nil {
		return st, err
	}
	if traced {
		start := time.Now()
		var buf []cluster.Request
		for b := 0; b < src.Blocks(); b++ {
			buf, _ = src.GenerateBlock(b, buf[:0])
		}
		st.gen = time.Since(start)
	}
	mems := make([]*tier.Manager, p.Nodes)
	st.done = make([][]time.Duration, p.Nodes)
	var start time.Time
	setupStart := time.Now()
	fleet, err := cluster.NewFleet(p.Nodes, func(node int) (*cluster.Sim, error) {
		m, scratch, err := buildMemory(p.Memory, traced)
		if err != nil {
			return nil, err
		}
		mems[node] = m
		// A node's completions are reported on whichever sweep worker runs
		// the node, one worker at a time, so each node appends to its own
		// slice; start is written before the replay begins.
		return cluster.NewSim(cluster.Config{
			Model: p.Model, Acc: p.Acc, Memory: m,
			PageTokens: p.PageTokens, MaxBatch: p.MaxBatch,
			ScratchTier: scratch,
			OnDone: func(cluster.Done) {
				st.done[node] = append(st.done[node], time.Since(start))
			},
		})
	})
	if err != nil {
		return st, err
	}
	st.setup = time.Since(setupStart)
	fleet.Window = p.Window
	fleet.Workers = workers
	var last time.Time
	fleet.Progress = func(int64) {
		now := time.Now()
		st.windows = append(st.windows, float64(now.Sub(last))/1e6)
		last = now
	}
	g0, c0 := readGoStats(), cpuTime()
	start = time.Now()
	last = start
	st.res, err = fleet.RunStream(src)
	st.wall = time.Since(start)
	st.cpu = cpuTime() - c0
	g1 := readGoStats()
	if err != nil {
		return st, err
	}
	st.gcCPU, st.allocMB, st.mallocs = goDelta(g0, g1)
	st.digest = digest(st.res)
	if traced {
		st.tiers = newTierTrace()
		for _, m := range mems {
			st.tiers.collect(m.Backends())
		}
	}
	return st, nil
}

// runFleet replays the day of p until the budget is spent and checks every
// replay against the first: same request accounting, same digest. Each
// replay rebuilds the fleet from scratch. The first replay is untraced and
// warms the heap; it counts for correctness but not in the medians. A traced
// run then alternates untraced and traced replays (at least minReplays of
// each): every traced replay, with the duplicated memory config behind the
// timing wrappers, must match the untraced digest, and the wall-time ratio
// of the two kinds is the tracing overhead.
func runFleet(p mrm.FleetDayParams, budget time.Duration, traced bool) (outcome, error) {
	n := requests(p)
	workers := runtime.NumCPU()
	o := outcome{metrics: metricSet{}}
	start := time.Now()
	var ref replayStats
	check := func(st replayStats, label string) {
		o.attempted += int64(n)
		if got := st.res.Completed + st.res.Truncated + st.res.Unserved; got != n {
			o.fail("%s: %d of %d requests completed, truncated or unserved", label, got, n)
		}
		reported := 0
		for _, node := range st.done {
			reported += len(node)
		}
		if reported != st.res.Completed+st.res.Truncated {
			o.fail("%s: %d completions reported for %d completed or truncated requests", label, reported, st.res.Completed+st.res.Truncated)
		}
		if ref.digest != "" && st.digest != ref.digest {
			o.fail("%s: result digest %.12s differs from %.12s", label, st.digest, ref.digest)
		}
	}
	next := func(traced bool, label string) (replayStats, error) {
		st, err := replay(p, workers, traced)
		if err == nil {
			check(st, label)
		}
		settle()
		return st, err
	}
	var err error
	if ref, err = next(false, "warm-up replay"); err != nil {
		return o, err
	}
	var reps, plain []replayStats
	for len(reps) < minReplays || time.Since(start) < budget {
		if traced {
			st, err := next(false, fmt.Sprintf("untraced replay %d", len(plain)+1))
			if err != nil {
				return o, err
			}
			plain = append(plain, st)
		}
		st, err := next(traced, fmt.Sprintf("replay %d", len(reps)+1))
		if err != nil {
			return o, err
		}
		reps = append(reps, st)
	}
	med := func(f func(replayStats) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	m := o.metrics
	if !traced {
		m.set("setup_s", med(func(r replayStats) float64 { return r.setup.Seconds() }))
		m.set("replay_req_per_s", med(func(r replayStats) float64 { return float64(n) / r.wall.Seconds() }))
		m.set("peak_rss_mb", peakRSSMB())
		m.set("req_p50_ms", med(func(r replayStats) float64 { return r.completion(0.5) }))
		return o, nil
	}
	// Per-layer metrics, each the median over the replay pairs. The tier
	// buckets come from the traced replay; whole-replay figures come from
	// its untraced twin, so that the wrappers' own cost, which lands outside
	// the buckets, is not charged to cluster.self_s.
	layer := make([]metricSet, len(reps))
	for i, r := range reps {
		u := plain[i]
		lm := metricSet{}
		r.tiers.metrics(lm)
		var steps int64
		for _, nr := range u.res.PerNode {
			steps += nr.DecodeSteps
		}
		lm.set("cluster.gen.req_per_s", float64(n)/r.gen.Seconds())
		lm.set("cluster.replay.windows", float64(len(u.windows)))
		lm.set("cluster.replay.window_p99_ms", quantile(append([]float64(nil), u.windows...), 0.99))
		lm.set("cluster.replay.cpu_s", u.cpu.Seconds())
		lm.set("cluster.decode_steps", float64(steps))
		if steps > 0 {
			lm.set("cluster.host_us_per_decode_step", float64(u.cpu.Microseconds())/float64(steps))
		}
		lm.set("cluster.self_s", u.cpu.Seconds()-r.tiers.seconds())
		lm.set("sweep.cpu_util", u.cpu.Seconds()/(u.wall.Seconds()*float64(workers)))
		if u.cpu > 0 {
			lm.set("go.gc_cpu_frac", u.gcCPU/u.cpu.Seconds())
		}
		lm.set("go.alloc_mb", u.allocMB)
		lm.set("go.mallocs", u.mallocs)
		layer[i] = lm
	}
	for _, d := range perLayer {
		xs := make([]float64, len(layer))
		for i, lm := range layer {
			xs[i] = lm[d.name]
		}
		m.set(d.name, median(xs))
	}
	wall := func(rs []replayStats) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.wall.Seconds()
		}
		return median(xs)
	}
	m.set("trace.overhead_frac", wall(reps)/wall(plain)-1)
	return o, nil
}

// settle collects the last replay's fleet so the next one is built into the
// heap it leaves, and the peak RSS reflects one fleet, not two.
func settle() { runtime.GC() }
