package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netsim"
)

// tracer keeps coarse spans in memory and writes them as JSONL when the run
// ends. A nil tracer records nothing. Per-call layers (CC calls, policy
// decisions, batched inference) are not spans: they are counted and timed
// by the wrappers below and attached to their parent span as attributes.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Self   time.Duration      `json:"self_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	closed bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id with optional attributes.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Attrs, s.closed = time.Since(t.t0), attrs, true
}

// record adds a span whose bounds were measured elsewhere.
func (t *tracer) record(name string, parent int, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Attrs: attrs, closed: true})
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes fills each span's self time: its duration minus the union of
// the intervals its children cover (children of a parallel sweep overlap).
func selfTimes(spans []span) {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	for i := range spans {
		iv := children[spans[i].ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach time.Duration
		for _, c := range iv {
			lo := max(c[0], reach)
			if c[1] > lo {
				covered += c[1] - lo
				reach = c[1]
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if !s.closed {
			return fmt.Errorf("span %q was never ended", s.Name)
		}
	}
	selfTimes(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callTimer counts and times calls made from one goroutine.
type callTimer struct {
	calls int64
	ns    int64
}

func (c *callTimer) since(start time.Time) {
	c.calls++
	c.ns += int64(time.Since(start))
}

func (c *callTimer) add(o *callTimer) {
	c.calls += o.calls
	c.ns += o.ns
}

// timedCC times a controller's feedback calls (Init, OnAck, OnLoss and, for
// interval schemes, OnInterval). CWND and PacingRate are field reads the
// sender makes per packet; timing them would cost more than they do.
type timedCC struct {
	cc.Algorithm
	t callTimer
}

func (a *timedCC) Init(now time.Duration) {
	s := time.Now()
	a.Algorithm.Init(now)
	a.t.since(s)
}

func (a *timedCC) OnAck(x cc.Ack) {
	s := time.Now()
	a.Algorithm.OnAck(x)
	a.t.since(s)
}

func (a *timedCC) OnLoss(x cc.Loss) {
	s := time.Now()
	a.Algorithm.OnLoss(x)
	a.t.since(s)
}

// timedIntervalCC keeps an interval scheme visible to the sender as one.
type timedIntervalCC struct {
	*timedCC
	ia cc.IntervalAlgorithm
}

func (a timedIntervalCC) ControlInterval() time.Duration { return a.ia.ControlInterval() }

func (a timedIntervalCC) OnInterval(s cc.IntervalStats) {
	st := time.Now()
	a.ia.OnInterval(s)
	a.t.since(st)
}

// timeCC wraps alg and returns the wrapper with its timer.
func timeCC(alg cc.Algorithm) (cc.Algorithm, *callTimer) {
	w := &timedCC{Algorithm: alg}
	if ia, ok := alg.(cc.IntervalAlgorithm); ok {
		return timedIntervalCC{w, ia}, &w.t
	}
	return w, &w.t
}

// timedPolicy times a Jury controller's policy decisions.
type timedPolicy struct {
	inner core.Policy
	t     callTimer
}

func (p *timedPolicy) Decide(state []float64) (float64, float64) {
	s := time.Now()
	mu, delta := p.inner.Decide(state)
	p.t.since(s)
	return mu, delta
}

// timedBatch times the daemon's batched inference. The batcher goroutine
// calls it while the benchmark reads the totals, hence the atomics.
type timedBatch struct {
	*core.NNPolicy
	calls, rows, ns, rowNs atomic.Int64
}

func (p *timedBatch) DecideBatch(states []float64, rows int, mu, delta []float64) {
	s := time.Now()
	p.NNPolicy.DecideBatch(states, rows, mu, delta)
	d := int64(time.Since(s))
	p.calls.Add(1)
	p.rows.Add(int64(rows))
	p.ns.Add(d)
	p.rowNs.Add(d * int64(rows))
}

// countTap counts packets sent and dropped at queues, per shard so that
// shards never write the same counter.
type countTap struct {
	shards [maxWorkers]struct {
		packets, drops int64
		_              [48]byte // keeps the two shards' counters on separate cache lines
	}
}

func (c *countTap) PacketSent(f *netsim.Flow, bytes int)                     { c.shards[f.Shard()].packets++ }
func (c *countTap) PacketAcked(f *netsim.Flow, bytes int, rtt time.Duration) {}
func (c *countTap) PacketLost(f *netsim.Flow, bytes int)                     {}
func (c *countTap) QueueEnqueued(l *netsim.Link, bytes int)                  {}
func (c *countTap) QueueDeparted(l *netsim.Link, bytes int)                  {}
func (c *countTap) QueueDropped(l *netsim.Link, bytes int, random bool) {
	c.shards[l.Shard()].drops++
}
func (c *countTap) IntervalDelivered(f *netsim.Flow, s cc.IntervalStats) {}
func (c *countTap) SampleRecorded(f *netsim.Flow, p netsim.SeriesPoint)  {}
func (c *countTap) FaultInjected(l *netsim.Link, f *netsim.Flow, kind netsim.FaultKind, bytes int) {
}

func (c *countTap) totals() (packets, drops int64) {
	for _, s := range c.shards {
		packets += s.packets
		drops += s.drops
	}
	return packets, drops
}
