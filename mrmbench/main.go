// Command mrmbench is the repository's benchmark: HBM-only and HBM+MRM fleet
// replays plus an open-loop run against an in-process mrmd server, timed end
// to end and, in a separate traced run, layer by layer at the tier backends.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash mrmbench/run.sh --workload fleet-mrm --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see README.md). A failed correctness check prints the
// mismatch on standard error, reports correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric. The two catalogs below are the
// contract with BENCHMARK.json; a self-test checks that they agree.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"replay_req_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"req_p50_ms", "ms", "lower"},
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, kind := range []string{"hbm", "mrm"} {
		for _, op := range []string{"get", "put", "tick", "info", "delete"} {
			defs = append(defs,
				metricDef{"tier." + kind + "." + op + ".calls", "count", "lower"},
				metricDef{"tier." + kind + "." + op + ".s", "s", "lower"})
		}
		defs = append(defs,
			metricDef{"tier." + kind + ".read_gb", "GB", "lower"},
			metricDef{"tier." + kind + ".written_gb", "GB", "lower"})
	}
	return append(defs,
		metricDef{"cluster.gen.req_per_s", "1/s", "higher"},
		metricDef{"cluster.replay.windows", "count", "lower"},
		metricDef{"cluster.replay.window_p99_ms", "ms", "lower"},
		metricDef{"cluster.replay.cpu_s", "s", "lower"},
		metricDef{"cluster.decode_steps", "count", "lower"},
		metricDef{"cluster.host_us_per_decode_step", "us", "lower"},
		metricDef{"cluster.self_s", "s", "lower"},
		metricDef{"sweep.cpu_util", "ratio", "higher"},
		metricDef{"go.gc_cpu_frac", "ratio", "lower"},
		metricDef{"go.alloc_mb", "MB", "lower"},
		metricDef{"go.mallocs", "count", "lower"},
		metricDef{"server.wall_p50_ms", "ms", "lower"},
		metricDef{"server.wall_p99_ms", "ms", "lower"},
		metricDef{"server.http_overhead_p50_ms", "ms", "lower"},
		metricDef{"server.rejected", "count", "lower"},
		metricDef{"server.timeouts", "count", "lower"},
		metricDef{"server.retries", "count", "lower"},
		metricDef{"server.queue_depth_max", "count", "lower"},
		metricDef{"loadgen.lag_p99_ms", "ms", "lower"},
		metricDef{"loadgen.req_p90_ms", "ms", "lower"},
		metricDef{"loadgen.req_p99_ms", "ms", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}()

// metricSet collects values by name; report adds the units from the catalog.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	errs              []string // correctness mismatches, one line each
	metrics           metricSet
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report turns an outcome into the contract's result line. Every metric of
// the selected catalog is present; a per-layer metric whose layer did not
// run reads 0 (and trace.overhead_frac may read below 0 within noise), while
// an end-to-end metric must be positive and finite.
func report(o outcome, traced bool) (resultOut, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := resultOut{Correct: o.failed == 0 && len(o.errs) == 0, Attempted: o.attempted,
		Failed: o.failed, Metrics: make(map[string]metricOut, len(defs))}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v := o.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v <= 0) {
			return res, fmt.Errorf("mrmbench: metric %s = %v is not a valid measurement", d.name, v)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range o.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return res, fmt.Errorf("mrmbench: metrics outside the catalog: %v", extra)
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("mrmbench: no operation attempted")
	}
	return res, nil
}

// workloads maps each --workload name to its full-size configuration.
var workloads = map[string]func(seed uint64, budget time.Duration, traced bool) (outcome, error){
	"fleet-hbm": func(seed uint64, budget time.Duration, traced bool) (outcome, error) {
		return runFleet(fleetHBM(seed), budget, traced)
	},
	"fleet-mrm": func(seed uint64, budget time.Duration, traced bool) (outcome, error) {
		return runFleet(fleetMRM(seed), budget, traced)
	},
	"mrmd-code": func(seed uint64, budget time.Duration, traced bool) (outcome, error) {
		return runMrmd(mrmdCode(seed), budget, traced)
	},
}

func main() {
	if spec, ok := os.LookupEnv(loadgenEnv); ok {
		os.Exit(loadgenMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mrmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-hbm, fleet-mrm or mrmd-code")
	seed := fs.Uint64("seed", 1, "seed for the generated load")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "mrmbench: need --workload fleet-hbm|fleet-mrm|mrmd-code, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	o, err := wl(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "mrmbench: %s: %v\n", *name, err)
		return 1
	}
	return emit(*name, o, *trace == 1, stdout, stderr)
}

// emit prints the result line for a finished run and returns the exit code:
// 0 when every check passed, 1 (after printing each mismatch on stderr) when
// one did not. A run whose metrics break the catalog prints no result.
func emit(name string, o outcome, traced bool, stdout, stderr io.Writer) int {
	for _, e := range o.errs {
		fmt.Fprintf(stderr, "mrmbench: %s: CORRECTNESS FAILURE: %s\n", name, e)
	}
	res, err := report(o, traced)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mrmbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
