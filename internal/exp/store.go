// Run-store wiring: content keys for scenarios and huge-mesh runs, and the
// conversions between live RunResults and stored runstore.Records. See
// DESIGN.md "Run store" and EXPERIMENTS.md "Resumable sweeps".
package exp

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/traces"
)

// KeySchemaVersion is folded into every content key. Bump it whenever the
// key schema changes — a field added or removed, an encoding reordered, a
// new run input that affects results — so stale records can never be
// mistaken for the output of the new code. The bump procedure is:
//
//  1. increment KeySchemaVersion;
//  2. regenerate the pinned keys in TestScenarioKeyStability (run with
//     -run TestScenarioKeyStability -v and copy the reported values);
//  3. note the bump in DESIGN.md "Run store / key schema".
//
// Old records stay readable (the record format is versioned separately) but
// stop matching, so they are re-run and re-stored — exactly the safe
// behavior when the meaning of a key changes.
// Version history: 2 added HugeOptions.BufferBytes to the huge key.
const KeySchemaVersion = 2

// Store, when non-nil, records every completed cacheable run. StoreResume
// additionally serves runs whose key is already stored without simulating.
// Use AttachStore to set both.
var (
	Store       *runstore.Store
	StoreResume bool
)

// StoreCompact, when true, drops the per-flow time series from stored
// records, keeping only lifetime stats, the precomputed late-window mean,
// and (when the obs layer is attached) the streaming summary. At a million
// flows the series dominate record size by orders of magnitude; the
// fairness tables are written to fall back on FlowSummary.LateMeanBps and
// RunResult.Stream, so compact records stay fully usable.
var StoreCompact bool

// liveRuns counts actual simulator executions (cache hits excluded); the
// warm-store tests pin it to zero.
var liveRuns atomic.Int64

// AttachStore points the harness at a run store and exports its repair and
// occupancy figures on the telemetry registry (when a hub is live).
func AttachStore(st *runstore.Store, resume bool) {
	Store, StoreResume = st, resume
	hub := Telemetry
	if st == nil || !hub.Enabled() {
		return
	}
	rep := st.Repair()
	hub.Registry.Counter("runstore_repair_torn_bytes_total",
		"bytes dropped by run-store startup repair").Add(rep.DroppedTornBytes)
	if rep.Dirty() {
		hub.Registry.Counter("runstore_repairs_total",
			"run-store opens that needed startup repair").Inc()
	}
	hub.Registry.GaugeFunc("runstore_records",
		"distinct run records in the attached store",
		func() float64 { return float64(st.Len()) })
}

// storeSlot is one run's place in the attached run store; the zero value
// (no store attached, or a run that is not cacheable) stores nothing.
type storeSlot struct {
	st  *runstore.Store
	key runstore.Key
}

// lookupStore binds a run with the given content key to the attached store.
// It also returns the stored record when the store is resumable and
// already holds the key — the caller then serves that instead of
// simulating.
func lookupStore(key runstore.Key, cacheable bool) (storeSlot, *runstore.Record) {
	st := Store
	if st == nil || !cacheable {
		return storeSlot{}, nil
	}
	if StoreResume {
		if rec, ok := st.Get(key); ok {
			storeCounter("runstore_hits_total", "sweep runs served from the run store").Inc()
			return storeSlot{}, rec
		}
		storeCounter("runstore_misses_total", "sweep runs not found in the run store").Inc()
	}
	return storeSlot{st, key}, nil
}

// put appends the completed run's record under the slot's key; record is
// only called when there is a store to append to.
func (s storeSlot) put(record func() *runstore.Record) error {
	if s.st == nil {
		return nil
	}
	rec := record()
	rec.Key = s.key
	if err := s.st.Put(rec); err != nil {
		return err
	}
	storeCounter("runstore_appends_total", "run records appended to the run store").Inc()
	return nil
}

// storeCounter returns the named hub counter, or a nil (no-op) counter when
// telemetry is off.
func storeCounter(name, help string) *telemetry.Counter {
	if hub := Telemetry; hub.Enabled() {
		return hub.Registry.Counter(name, help)
	}
	return nil
}

// Key-buffer append helpers. The canonical key serialization is
// little-endian fixed-width fields with length-prefixed strings and
// explicit presence tags — unambiguous, so two different configurations can
// never serialize to the same buffer.
func keyU8(b []byte, v uint8) []byte   { return append(b, v) }
func keyU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func keyU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func keyI64(b []byte, v int64) []byte  { return keyU64(b, uint64(v)) }
func keyF64(b []byte, v float64) []byte {
	return keyU64(b, math.Float64bits(v))
}
func keyStr(b []byte, s string) []byte {
	b = keyU32(b, uint32(len(s)))
	return append(b, s...)
}
func keyBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// keyTrace fingerprints a capacity trace. Known concrete types serialize
// exactly; an unknown Trace implementation is fingerprinted by sampling its
// rate at 256 evenly spaced instants of the horizon, which is deterministic
// and captures any behavior a discrete-event run can observe at that
// resolution.
func keyTrace(b []byte, tr traces.Trace, horizon time.Duration) []byte {
	switch t := tr.(type) {
	case nil:
		return keyU8(b, 0)
	case traces.Constant:
		b = keyU8(b, 1)
		return keyF64(b, float64(t))
	case *traces.Step:
		b = keyU8(b, 2)
		b = keyU32(b, uint32(len(t.Points)))
		for _, p := range t.Points {
			b = keyI64(b, int64(p.At))
			b = keyF64(b, p.Rate)
		}
		return keyI64(b, int64(t.Loop))
	default:
		b = keyU8(b, 3)
		const samples = 256
		for i := 0; i < samples; i++ {
			b = keyF64(b, t.RateAt(horizon*time.Duration(i)/samples))
		}
		return b
	}
}

// ScenarioKey derives the content address of a scenario run: a hash over
// every input that determines the result — link configuration, trace,
// faults, flow specs, horizon, seed, the effective check and shard settings
// — plus KeySchemaVersion. The scenario Name is deliberately excluded (it
// labels, it does not simulate). A scenario using a FlowSpec.CC factory
// override is not cacheable (function identity cannot be fingerprinted) and
// reports ok = false.
func ScenarioKey(s Scenario) (key runstore.Key, ok bool) {
	for _, fs := range s.Flows {
		if fs.CC != nil {
			return key, false
		}
	}
	b := make([]byte, 0, 256)
	b = append(b, "jury-scenario"...)
	b = keyU32(b, KeySchemaVersion)
	b = keyF64(b, s.Rate)
	b = keyTrace(b, s.Trace, s.Horizon)
	b = keyI64(b, int64(s.OneWayDelay))
	b = keyI64(b, int64(s.BufferBytes))
	b = keyF64(b, s.LossRate)
	b = keyI64(b, int64(s.PacketSize))
	b = keyFaults(b, s)
	b = keyU32(b, uint32(len(s.Flows)))
	for _, fs := range s.Flows {
		b = keyStr(b, fs.Scheme)
		b = keyI64(b, int64(fs.Start))
		b = keyI64(b, int64(fs.Duration))
		b = keyI64(b, int64(fs.ExtraOneWay))
	}
	b = keyI64(b, int64(s.Horizon))
	b = keyU64(b, s.Seed)
	b = keyBool(b, s.Check || ForceCheck)
	b = keyU32(b, uint32(effectiveShards(s)))
	return runstore.KeyOf(b), true
}

func effectiveShards(s Scenario) int {
	if s.Shards != 0 {
		return s.Shards
	}
	return DefaultShards
}

func keyFaults(b []byte, s Scenario) []byte {
	c := s.Faults
	if !c.Enabled() {
		return keyU8(b, 0)
	}
	b = keyU8(b, 1)
	if c.GE == nil {
		b = keyU8(b, 0)
	} else {
		b = keyU8(b, 1)
		b = keyF64(b, c.GE.PGoodBad)
		b = keyF64(b, c.GE.PBadGood)
		b = keyF64(b, c.GE.LossGood)
		b = keyF64(b, c.GE.LossBad)
	}
	b = keyF64(b, c.ReorderProb)
	b = keyI64(b, int64(c.ReorderMaxDelay))
	b = keyF64(b, c.DupProb)
	b = keyF64(b, c.JitterProb)
	b = keyI64(b, int64(c.JitterMax))
	if c.Flap == nil {
		return keyU8(b, 0)
	}
	b = keyU8(b, 1)
	b = keyI64(b, int64(c.Flap.MeanUp))
	return keyI64(b, int64(c.Flap.MeanDown))
}

// HugeKey derives the content address of a RunHuge execution from its
// resolved options; ok is false when a custom CC factory makes the run
// uncacheable. Callers must pass options with defaults applied.
func HugeKey(o HugeOptions, customCC bool) (key runstore.Key, ok bool) {
	if customCC {
		return key, false
	}
	b := make([]byte, 0, 96)
	b = append(b, "jury-huge"...)
	b = keyU32(b, KeySchemaVersion)
	b = keyU32(b, uint32(o.Segments))
	b = keyU32(b, uint32(o.TotalFlows))
	b = keyF64(b, o.Rate)
	b = keyI64(b, int64(o.BufferBytes))
	b = keyI64(b, int64(o.Horizon))
	b = keyU32(b, uint32(o.Shards))
	b = keyU64(b, o.Seed)
	b = keyBool(b, o.Check || ForceCheck)
	return runstore.KeyOf(b), true
}

// recordFromResult converts a completed live run into its stored form.
func recordFromResult(s Scenario, r *RunResult) *runstore.Record {
	rec := &runstore.Record{
		Scenario:    s.Name,
		Schemes:     scenarioSchemes(s),
		Seed:        s.Seed,
		Horizon:     s.Horizon,
		Digest:      r.Digest,
		Checked:     r.Checked,
		Utilization: r.Utilization,
		FaultDrops:  r.LinkSummary.FaultDrops,
		Reordered:   r.LinkSummary.Reordered,
		Duplicated:  r.LinkSummary.Duplicated,
	}
	rec.Flows = make([]runstore.FlowRecord, 0, len(r.FlowSummaries))
	for _, f := range r.FlowSummaries {
		fr := runstore.FlowRecord{
			BaseRTT:     f.baseRTT,
			Stats:       f.stats,
			Degraded:    f.degraded,
			NonFinite:   f.nonFinite,
			LateMeanBps: f.lateMeanBps,
			Series:      f.series,
		}
		if StoreCompact {
			fr.Series = nil
		}
		rec.Flows = append(rec.Flows, fr)
	}
	rec.Stream = r.Stream
	return rec
}

// scenarioSchemes lists the distinct schemes of a scenario in flow order.
func scenarioSchemes(s Scenario) []string {
	seen := make(map[string]bool, len(s.Flows))
	var out []string
	for _, fs := range s.Flows {
		if !seen[fs.Scheme] {
			seen[fs.Scheme] = true
			out = append(out, fs.Scheme)
		}
	}
	return out
}

// resultFromRecord reconstructs the consumer-facing view of a stored run.
func resultFromRecord(s Scenario, rec *runstore.Record) *RunResult {
	r := &RunResult{
		Scenario:    s,
		Utilization: rec.Utilization,
		Digest:      rec.Digest,
		Checked:     rec.Checked,
		Cached:      true,
		LinkSummary: LinkSummary{
			FaultDrops: rec.FaultDrops,
			Reordered:  rec.Reordered,
			Duplicated: rec.Duplicated,
		},
	}
	r.FlowSummaries = make([]*FlowSummary, 0, len(rec.Flows))
	for i := range rec.Flows {
		f := &rec.Flows[i]
		r.FlowSummaries = append(r.FlowSummaries, &FlowSummary{
			name:        f.Stats.Name,
			baseRTT:     f.BaseRTT,
			stats:       f.Stats,
			series:      f.Series,
			degraded:    f.Degraded,
			nonFinite:   f.NonFinite,
			lateMeanBps: f.LateMeanBps,
		})
	}
	r.Stream = rec.Stream
	return r
}

// hugeRecord converts a completed RunHuge into its stored form.
func hugeRecord(o HugeOptions, res *HugeResult) *runstore.Record {
	return &runstore.Record{
		Scenario:      hugeName(o),
		Schemes:       []string{"cubic"},
		Seed:          o.Seed,
		Horizon:       o.Horizon,
		Digest:        res.Digest,
		Checked:       res.Digest != 0,
		Events:        res.Events,
		ShardExecuted: append([]int64(nil), res.ExecutedPerShard...),
		Stream:        res.Stream,
	}
}

// hugeFromRecord reconstructs a HugeResult from a stored record; the
// topology echo fields come from the resolved options (they are key
// inputs, so they necessarily match the stored run's).
func hugeFromRecord(o HugeOptions, rec *runstore.Record) *HugeResult {
	return &HugeResult{
		FlowCount:        o.TotalFlows,
		Segments:         o.Segments,
		ShardCount:       len(rec.ShardExecuted),
		Events:           rec.Events,
		ExecutedPerShard: append([]int64(nil), rec.ShardExecuted...),
		Digest:           rec.Digest,
		Stream:           rec.Stream,
	}
}
