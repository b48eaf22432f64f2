package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"mrm"
	"mrm/internal/core"
	"mrm/internal/memdev"
	"mrm/internal/tier"
	"mrm/internal/units"
)

// TestMain lets the test binary stand in for the benchmark binary when
// runMrmd starts it as the load generator.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(loadgenEnv); ok {
		os.Exit(loadgenMain(spec))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the catalogs must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range workloads {
		ours = append(ours, name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, mrmbench %v", names, ours)
	}
	check := func(kind string, declared []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, mrmbench reports %d", kind, len(declared), len(defs))
		}
		for i := 0; i < len(declared) && i < len(defs); i++ {
			d := declared[i]
			if d.Name != defs[i].name || d.Unit != defs[i].unit || d.Better != defs[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, mrmbench %+v", kind, i, d, defs[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// checkResultLine parses the last stdout line the way the contract reads it.
func checkResultLine(t *testing.T, out string, traced bool) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var res struct {
		Correct   bool
		Attempted json.Number
		Failed    json.Number
		Metrics   map[string]map[string]json.RawMessage
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.UseNumber()
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	attempted, err1 := res.Attempted.Int64()
	failed, err2 := res.Failed.Int64()
	if !res.Correct || err1 != nil || err2 != nil || attempted < 1 || failed != 0 {
		t.Fatalf("correct=%v attempted=%v failed=%v", res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		var v float64
		var unit string
		if len(m) != 2 || json.Unmarshal(m["value"], &v) != nil || json.Unmarshal(m["unit"], &unit) != nil || unit != d.unit {
			t.Errorf("metric %s = %v, want {value, unit %q}", d.name, m, d.unit)
		}
		if !traced && v <= 0 {
			t.Errorf("end-to-end metric %s = %v", d.name, v)
		}
	}
}

func tinyFleet(mem mrm.MemoryConfig) mrm.FleetDayParams {
	return fleetDay(7, 20, 2*time.Minute, mem, 16)
}

func TestTinyWorkloadsEmitContractOutput(t *testing.T) {
	tiny := map[string]func(traced bool) (outcome, error){
		"fleet-hbm": func(traced bool) (outcome, error) { return runFleet(tinyFleet(mrm.HBMOnly), 0, traced) },
		"fleet-mrm": func(traced bool) (outcome, error) { return runFleet(tinyFleet(mrm.HBMPlusMRM), 0, traced) },
		"mrmd-code": func(traced bool) (outcome, error) {
			return runMrmd(mrmdConfig{seed: 7, rate: 100, warmup: 50 * time.Millisecond}, 300*time.Millisecond, traced)
		},
	}
	for name, runTiny := range tiny {
		for _, traced := range []bool{false, true} {
			o, err := runTiny(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var stdout, stderr bytes.Buffer
			if code := emit(name, o, traced, &stdout, &stderr); code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", name, traced, code, stderr.String())
			}
			checkResultLine(t, stdout.String(), traced)
			if traced && name == "fleet-hbm" {
				for _, op := range []string{"get", "put", "tick", "info", "delete"} {
					if v := o.metrics["tier.mrm."+op+".calls"]; v != 0 {
						t.Errorf("fleet-hbm: tier.mrm.%s.calls = %v, want 0", op, v)
					}
				}
			}
			if traced && name == "fleet-mrm" && o.metrics["tier.mrm.tick.calls"] == 0 {
				t.Errorf("fleet-mrm: MRM housekeeping never ran")
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "fleet-hbm", "--trace", "2"},
		{"--workload", "fleet-hbm", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestReportRejectsBrokenMetrics(t *testing.T) {
	good := metricSet{}
	for _, d := range endToEnd {
		good[d.name] = 1
	}
	if _, err := report(outcome{attempted: 1, metrics: good}, false); err != nil {
		t.Fatalf("valid outcome rejected: %v", err)
	}
	for name, mutate := range map[string]func(metricSet){
		"zero":    func(m metricSet) { m["setup_s"] = 0 },
		"missing": func(m metricSet) { delete(m, "req_p50_ms") },
		"extra":   func(m metricSet) { m["bogus"] = 1 },
	} {
		m := metricSet{}
		for k, v := range good {
			m[k] = v
		}
		mutate(m)
		if _, err := report(outcome{attempted: 1, metrics: m}, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if res, _ := report(outcome{attempted: 1, metrics: good, failed: 1}, false); res.Correct {
		t.Errorf("a failed operation still reports correct")
	}
}

// The benchmark's fleet path, untraced (mrm.BuildMemory) and
// traced (the duplicated config behind the timing wrappers), replays a day
// exactly as mrm.RunFleetDay does.
func TestFleetPathEqualsRunFleetDay(t *testing.T) {
	for _, mem := range []mrm.MemoryConfig{mrm.HBMOnly, mrm.HBMPlusMRM} {
		p := tinyFleet(mem)
		want, _, err := mrm.RunFleetDay(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			st, err := replay(p, 2, traced)
			if err != nil {
				t.Fatal(err)
			}
			if st.digest != digest(want.Fleet) {
				t.Errorf("%v traced=%v: fleet result differs from mrm.RunFleetDay", mem, traced)
			}
		}
	}
}

var optionalInterfaces = []reflect.Type{
	reflect.TypeFor[tier.BatchGetter](),
	reflect.TypeFor[tier.SpanGetter](),
	reflect.TypeFor[tier.RefGetter](),
	reflect.TypeFor[tier.Housekeeper](),
	reflect.TypeFor[tier.BatchPutter](),
	reflect.TypeFor[tier.Faultable](),
	reflect.TypeFor[tier.BERTunable](),
}

func TestWrappersMirrorOptionalInterfaces(t *testing.T) {
	spec := memdev.HBM3E
	spec.Capacity = units.GiB
	dev, err := tier.NewDeviceTier("hbm", spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Capacity = units.GiB
	cfg.ZoneSize = 64 * units.MiB
	mr, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt := tier.NewMRMTier("mrm", mr)
	for _, pair := range []struct{ inner, wrapper tier.Backend }{
		{dev, &timedDevice{b: dev}},
		{mt, &timedMRM{b: mt}},
	} {
		in, wr := reflect.TypeOf(pair.inner), reflect.TypeOf(pair.wrapper)
		for _, iface := range optionalInterfaces {
			if in.Implements(iface) != wr.Implements(iface) {
				t.Errorf("%v implements %v: %v, but %v: %v", in, iface, in.Implements(iface), wr, wr.Implements(iface))
			}
		}
	}
}
