package main

import (
	"time"

	"mrm/internal/core"
	"mrm/internal/memdev"
	"mrm/internal/tier"
	"mrm/internal/units"
)

// The traced run times the memory layers from outside the program: every
// tier.Backend the benchmark's node factory hands to tier.NewManager is
// wrapped in one of the two types below, which forward each call and charge
// its wall time to an operation bucket. Calls into one backend come from the
// goroutine that owns its node at the time (the fleet hands nodes between
// sweep workers only across a pool barrier), so the buckets need no lock;
// they are read after the replay or the server drain has joined every worker.

// opStat is one operation bucket: how many calls and how long they took.
type opStat struct {
	calls int64
	dur   time.Duration
}

func (o *opStat) add(start time.Time) {
	o.calls++
	o.dur += time.Since(start)
}

// clockCost is what one timed call adds to its own reading: the part of the
// two clock reads that falls between them. It is calibrated once, and the
// per-layer seconds are reported with calls × clockCost taken off.
var clockCost = func() time.Duration {
	var o opStat
	for i := 0; i < 1<<16; i++ {
		o.add(time.Now())
	}
	return o.dur / time.Duration(o.calls)
}()

// seconds is the bucket's time with the clock's own cost removed.
func (o *opStat) seconds() float64 {
	return max(0, (o.dur - time.Duration(o.calls)*clockCost).Seconds())
}

// layerStats are the buckets of one backend. get covers every read entry
// point (Get, GetBatch, GetSpans, GetRefs and the span/ref resolvers), put
// covers Put and PutBatch, tick covers Tick and NextDeadline (housekeeping:
// MRM expiry and refresh), info covers Info (the placement policy's view of
// free space, a zone scan on MRM). A batch call counts once.
type layerStats struct {
	get, put, tick, info, del opStat
}

// ops lists the buckets under their metric names.
func (s *layerStats) ops() []struct {
	name string
	op   *opStat
} {
	return []struct {
		name string
		op   *opStat
	}{{"get", &s.get}, {"put", &s.put}, {"tick", &s.tick}, {"info", &s.info}, {"delete", &s.del}}
}

func (s *layerStats) merge(o *layerStats) {
	src := o.ops()
	for i, dst := range s.ops() {
		dst.op.calls += src[i].op.calls
		dst.op.dur += src[i].op.dur
	}
}

// seconds is the time inside the backend, clock cost removed.
func (s *layerStats) seconds() float64 {
	var sum float64
	for _, o := range s.ops() {
		sum += o.op.seconds()
	}
	return sum
}

// timed is what the trace collector reads back from either wrapper.
type timed interface {
	tier.Backend
	layer() *layerStats
}

// timedDevice wraps a *tier.DeviceTier (HBM). It implements exactly the
// optional interfaces DeviceTier does: BatchGetter, SpanGetter, BatchPutter,
// Faultable and BERTunable.
type timedDevice struct {
	b  *tier.DeviceTier
	st layerStats
}

func (t *timedDevice) layer() *layerStats { return &t.st }
func (t *timedDevice) Name() string       { return t.b.Name() }

func (t *timedDevice) Info() tier.Info {
	defer t.st.info.add(time.Now())
	return t.b.Info()
}

func (t *timedDevice) Put(m tier.Meta) (uint64, time.Duration, error) {
	defer t.st.put.add(time.Now())
	return t.b.Put(m)
}

func (t *timedDevice) PutBatch(metas []tier.Meta, handles []uint64, lats []time.Duration) (int, error) {
	defer t.st.put.add(time.Now())
	return t.b.PutBatch(metas, handles, lats)
}

func (t *timedDevice) Get(handle uint64) (time.Duration, error) {
	defer t.st.get.add(time.Now())
	return t.b.Get(handle)
}

func (t *timedDevice) GetBatch(handles []uint64) (int, error) {
	defer t.st.get.add(time.Now())
	return t.b.GetBatch(handles)
}

func (t *timedDevice) ResolveSpan(handle uint64) (memdev.Span, error) {
	defer t.st.get.add(time.Now())
	return t.b.ResolveSpan(handle)
}

func (t *timedDevice) GetSpans(spans []memdev.Span) (int, error) {
	defer t.st.get.add(time.Now())
	return t.b.GetSpans(spans)
}

func (t *timedDevice) Delete(handle uint64) error {
	defer t.st.del.add(time.Now())
	return t.b.Delete(handle)
}

func (t *timedDevice) Tick(dt time.Duration) error {
	defer t.st.tick.add(time.Now())
	return t.b.Tick(dt)
}

func (t *timedDevice) Energy() units.Energy                { return t.b.Energy() }
func (t *timedDevice) Traffic() (units.Bytes, units.Bytes) { return t.b.Traffic() }
func (t *timedDevice) SetFaults(cfg memdev.FaultConfig)    { t.b.SetFaults(cfg) }
func (t *timedDevice) SetBERTracking(on bool)              { t.b.SetBERTracking(on) }

// timedMRM wraps a *tier.MRMTier (core + controller). It implements exactly
// the optional interfaces MRMTier does: BatchGetter, RefGetter, Housekeeper,
// BatchPutter, Faultable and BERTunable.
type timedMRM struct {
	b  *tier.MRMTier
	st layerStats
}

func (t *timedMRM) layer() *layerStats { return &t.st }
func (t *timedMRM) Name() string       { return t.b.Name() }

func (t *timedMRM) Info() tier.Info {
	defer t.st.info.add(time.Now())
	return t.b.Info()
}

func (t *timedMRM) Put(m tier.Meta) (uint64, time.Duration, error) {
	defer t.st.put.add(time.Now())
	return t.b.Put(m)
}

func (t *timedMRM) PutBatch(metas []tier.Meta, handles []uint64, lats []time.Duration) (int, error) {
	defer t.st.put.add(time.Now())
	return t.b.PutBatch(metas, handles, lats)
}

func (t *timedMRM) Get(handle uint64) (time.Duration, error) {
	defer t.st.get.add(time.Now())
	return t.b.Get(handle)
}

func (t *timedMRM) GetBatch(handles []uint64) (int, error) {
	defer t.st.get.add(time.Now())
	return t.b.GetBatch(handles)
}

func (t *timedMRM) ResolveRef(handle uint64) (core.ObjRef, error) {
	defer t.st.get.add(time.Now())
	return t.b.ResolveRef(handle)
}

func (t *timedMRM) GetRefs(refs []core.ObjRef) (int, error) {
	defer t.st.get.add(time.Now())
	return t.b.GetRefs(refs)
}

func (t *timedMRM) NextDeadline() (time.Duration, bool) {
	defer t.st.tick.add(time.Now())
	return t.b.NextDeadline()
}

func (t *timedMRM) Delete(handle uint64) error {
	defer t.st.del.add(time.Now())
	return t.b.Delete(handle)
}

func (t *timedMRM) Tick(dt time.Duration) error {
	defer t.st.tick.add(time.Now())
	return t.b.Tick(dt)
}

func (t *timedMRM) Energy() units.Energy                { return t.b.Energy() }
func (t *timedMRM) Traffic() (units.Bytes, units.Bytes) { return t.b.Traffic() }
func (t *timedMRM) SetFaults(cfg memdev.FaultConfig)    { t.b.SetFaults(cfg) }
func (t *timedMRM) SetBERTracking(on bool)              { t.b.SetBERTracking(on) }

// tierTrace accumulates the wrapped backends of one traced replay (or one
// traced server), keyed by tier kind ("hbm", "mrm").
type tierTrace struct {
	stats         map[string]*layerStats
	read, written map[string]units.Bytes
}

func newTierTrace() *tierTrace {
	return &tierTrace{stats: map[string]*layerStats{"hbm": {}, "mrm": {}},
		read: map[string]units.Bytes{}, written: map[string]units.Bytes{}}
}

// collect folds one node's wrapped backends into the trace.
func (tt *tierTrace) collect(backends []tier.Backend) {
	for _, b := range backends {
		kind := "hbm"
		if _, ok := b.(*timedMRM); ok {
			kind = "mrm"
		}
		t, ok := b.(timed)
		if !ok {
			continue
		}
		tt.stats[kind].merge(t.layer())
		r, w := t.Traffic()
		tt.read[kind] += r
		tt.written[kind] += w
	}
}

// seconds is the time spent inside every wrapped backend.
func (tt *tierTrace) seconds() float64 {
	return tt.stats["hbm"].seconds() + tt.stats["mrm"].seconds()
}

// metrics emits the tier.* per-layer metrics.
func (tt *tierTrace) metrics(m metricSet) {
	for _, kind := range []string{"hbm", "mrm"} {
		for _, o := range tt.stats[kind].ops() {
			m.set("tier."+kind+"."+o.name+".calls", float64(o.op.calls))
			m.set("tier."+kind+"."+o.name+".s", o.op.seconds())
		}
		m.set("tier."+kind+".read_gb", float64(tt.read[kind])/1e9)
		m.set("tier."+kind+".written_gb", float64(tt.written[kind])/1e9)
	}
}
