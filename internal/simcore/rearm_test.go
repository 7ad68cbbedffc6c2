package simcore

import (
	"testing"
	"time"
)

// rearmDriver applies one seeded random sequence of schedule, cancel and
// re-arm operations to an engine, from outside Run and from inside firing
// callbacks. With inPlace it re-arms through RearmArg; otherwise through
// the reference Cancel plus ScheduleArg. It logs the executed (at, seq)
// stream and every Active/At answer, so two drivers with the same seed can
// be compared step for step.
type rearmDriver struct {
	e       *Engine
	rng     *RNG
	inPlace bool
	slots   [8]Timer
	budget  int

	executed []rearmKey
	answers  []time.Duration

	// Path counters (inPlace drivers only): re-arms that found their event
	// live at the requested time, split by where it was queued, and the
	// ones that fell back to cancel plus schedule.
	heapHits, wheel0Hits, wheel1Hits, fallbacks int
}

type rearmKey struct {
	at  time.Duration
	seq uint64
}

func newRearmDriver(seed uint64, inPlace, noWheel bool) *rearmDriver {
	d := &rearmDriver{e: NewEngine(), rng: NewRNG(seed), inPlace: inPlace, budget: 4000}
	d.e.queue.noWheel = noWheel
	d.e.SetEventHook(func(at time.Duration, seq uint64) {
		d.executed = append(d.executed, rearmKey{at, seq})
	})
	return d
}

// delay spreads new firing times across the heap-resident granule, level 0,
// level 1 and the overflow horizon. Exact ties between events scheduled at
// different times are common: a delay is often zero or lands on a coarse
// grid, so the schedAt key decides their order.
func (d *rearmDriver) delay() time.Duration {
	switch d.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		const grid = slot0Gran / 4
		return grid - d.e.Now()%grid + grid*time.Duration(d.rng.Intn(8))
	case 2:
		return time.Duration(d.rng.Intn(int(slot0Gran)))
	case 3:
		return time.Duration(d.rng.Intn(int(span0)))
	case 4:
		return span0 + time.Duration(d.rng.Intn(int(span1-span0)))
	default:
		return span1 + time.Duration(d.rng.Intn(int(span1)))
	}
}

func (d *rearmDriver) fire(arg any) {
	k := arg.(int)
	// A callback often re-arms its own, just-fired slot: at Now (the same
	// time the fired handle still reports) or at a fresh time.
	if d.budget > 0 && d.rng.Intn(3) == 0 {
		d.budget--
		at := d.e.Now()
		if d.rng.Intn(2) == 0 {
			at += d.delay()
		}
		d.rearm(k, at)
	}
	d.step()
}

func (d *rearmDriver) rearm(k int, at time.Duration) {
	t := d.slots[k]
	if !d.inPlace {
		t.Cancel()
		d.slots[k] = d.e.ScheduleArg(at, d.fire, k)
		return
	}
	switch ev := t.ev; {
	case !t.Active() || ev.at != at:
		d.fallbacks++
	case ev.index >= 0:
		d.heapHits++
	case ev.at-d.e.queue.cur >= span0:
		d.wheel1Hits++
	default:
		d.wheel0Hits++
	}
	d.slots[k] = d.e.RearmArg(t, at, d.fire, k)
}

// step performs up to two random operations on random slots, then logs the
// Active/At answers of every slot.
func (d *rearmDriver) step() {
	for n := d.rng.Intn(3); n > 0 && d.budget > 0; n-- {
		d.budget--
		k := d.rng.Intn(len(d.slots))
		switch op := d.rng.Intn(10); {
		case op < 4: // re-arm at the pending time: the paced-sender pattern
			at := d.slots[k].At()
			if at < d.e.Now() {
				at = d.e.Now() // stale or inert handles report 0
			}
			d.rearm(k, at)
		case op < 6: // re-arm at a different time
			d.rearm(k, d.e.Now()+d.delay())
		case op < 7: // schedule into the slot, leaving any old event live
			d.slots[k] = d.e.ScheduleArg(d.e.Now()+d.delay(), d.fire, k)
		case op < 8: // inject as if scheduled later than Now (a cross-shard
			// event), so re-arming it in place lowers its key
			at := d.e.Now() + d.delay()
			sched := at
			if d.rng.Intn(2) == 0 {
				sched = d.e.Now() + time.Duration(d.rng.Intn(int(at-d.e.Now())+1))
			}
			d.slots[k] = d.e.InjectArg(at, sched, d.fire, k)
		default:
			d.slots[k].Cancel()
		}
	}
	for _, t := range d.slots {
		active := time.Duration(0)
		if t.Active() {
			active = 1
		}
		d.answers = append(d.answers, active, t.At())
	}
}

func (d *rearmDriver) run() {
	for d.budget > 0 {
		d.step()
		d.e.Run(d.e.Now() + time.Duration(d.rng.Intn(int(2*span0))))
	}
	d.e.Run(d.e.Now() + 4*span1)
}

// TestRearmMatchesCancelSchedule is RearmArg's correctness property: random
// interleavings of schedule, inject, cancel and re-arm, applied through RearmArg on
// one engine and through Cancel plus ScheduleArg on another, must execute
// the identical (at, seq) stream and give identical Active/At answers, with
// the timer wheel and heap-only. The in-place path must actually be taken
// for heap-, level-0- and level-1-resident events, and the fallback for
// stale, fired, cancelled and moved timers.
func TestRearmMatchesCancelSchedule(t *testing.T) {
	for _, noWheel := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			got := newRearmDriver(seed, true, noWheel)
			ref := newRearmDriver(seed, false, noWheel)
			got.run()
			ref.run()
			if len(got.executed) != len(ref.executed) {
				t.Fatalf("noWheel=%v seed %d: executed %d events, reference %d",
					noWheel, seed, len(got.executed), len(ref.executed))
			}
			for i := range ref.executed {
				if got.executed[i] != ref.executed[i] {
					t.Fatalf("noWheel=%v seed %d: event %d is %+v, reference %+v",
						noWheel, seed, i, got.executed[i], ref.executed[i])
				}
			}
			if len(got.answers) != len(ref.answers) {
				t.Fatalf("noWheel=%v seed %d: %d Active/At answers, reference %d",
					noWheel, seed, len(got.answers), len(ref.answers))
			}
			for i := range ref.answers {
				if got.answers[i] != ref.answers[i] {
					t.Fatalf("noWheel=%v seed %d: Active/At answer %d is %v, reference %v",
						noWheel, seed, i, got.answers[i], ref.answers[i])
				}
			}
			if got.e.PendingEvents() != 0 || ref.e.PendingEvents() != 0 {
				t.Fatalf("noWheel=%v seed %d: live events left after the final run", noWheel, seed)
			}
			if len(ref.executed) < 1000 || got.heapHits == 0 || got.fallbacks == 0 ||
				(!noWheel && (got.wheel0Hits == 0 || got.wheel1Hits == 0)) {
				t.Fatalf("noWheel=%v seed %d: too thin: %d events, in place heap/wheel0/wheel1 %d/%d/%d, fallback %d",
					noWheel, seed, len(ref.executed), got.heapHits, got.wheel0Hits, got.wheel1Hits, got.fallbacks)
			}
		}
	}
}

// TestRearmInjectedEventMovesUp pins the one case where an in-place re-arm
// lowers an event's key: a cross-shard event injected with a schedule stamp
// later than Now sorts behind a same-time event stamped earlier, and
// re-arming it at Now must move it ahead, exactly as cancel plus schedule
// would.
func TestRearmInjectedEventMovesUp(t *testing.T) {
	const at = time.Millisecond
	for _, noWheel := range []bool{false, true} {
		e := NewEngine()
		e.queue.noWheel = noWheel
		var order []string
		fn := func(a any) { order = append(order, a.(string)) }
		e.InjectArg(at, at, fn, "first")
		tm := e.InjectArg(at, at, fn, "rearmed")
		e.RearmArg(tm, at, fn, "rearmed")
		e.Run(at)
		if len(order) != 2 || order[0] != "rearmed" || order[1] != "first" {
			t.Fatalf("noWheel=%v: order %v, want [rearmed first]", noWheel, order)
		}
	}
}
