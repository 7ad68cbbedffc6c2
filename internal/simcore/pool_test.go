package simcore

import (
	"testing"
	"time"
)

// TestEventPoolRecycles verifies that steady-state scheduling reuses event
// storage instead of growing the heap: after a warm-up, a schedule/fire
// cycle must not allocate.
func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine()
	var fired int
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			e.ScheduleAfter(time.Millisecond, tick)
		}
	}
	e.ScheduleAfter(time.Millisecond, tick)
	e.Run(2 * time.Second)
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	// One event is in flight at a time, so the pool should hold roughly one
	// recycled event — not a thousand.
	if n := len(e.free); n > 4 {
		t.Fatalf("free-list holds %d events after a 1-in-flight run", n)
	}
}

// TestTimerStaleHandleIsInert verifies the generation counter: a handle to
// an event whose storage has been recycled must not cancel the new tenant.
func TestTimerStaleHandleIsInert(t *testing.T) {
	e := NewEngine()
	var stale Timer
	secondFired := false
	e.Schedule(10, func() {
		// stale's event has fired and its storage may back the later event;
		// cancelling through the old handle must be a no-op.
		stale.Cancel()
		if stale.Active() {
			t.Error("stale handle reports Active")
		}
		if stale.At() != 0 {
			t.Errorf("stale handle At() = %v, want 0", stale.At())
		}
	})
	stale = e.Schedule(5, func() {})
	e.Run(15)

	// Force recycling: the new event must fire even though a stale handle to
	// its storage was cancelled.
	ev := e.Schedule(20, func() { secondFired = true })
	_ = ev
	e.Run(30)
	if !secondFired {
		t.Fatal("event sharing recycled storage with a stale handle did not fire")
	}
}

func TestTimerCancelStopsRescheduledStorage(t *testing.T) {
	e := NewEngine()
	firedA, firedB := false, false
	a := e.Schedule(5, func() { firedA = true })
	a.Cancel()
	b := e.Schedule(7, func() { firedB = true })
	if a.Active() {
		t.Fatal("cancelled handle reports Active")
	}
	if !b.Active() {
		t.Fatal("fresh handle not Active")
	}
	e.Run(10)
	if firedA || !firedB {
		t.Fatalf("firedA=%v firedB=%v, want false/true", firedA, firedB)
	}
}

// BenchmarkEngineSchedule measures the hot path of the simulator: schedule
// one event, run it, recycle it. After warm-up this must be allocation-free.
func BenchmarkEngineSchedule(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		e := NewEngine()
		n := 0
		fn := func() { n++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(e.Now()+time.Microsecond, fn)
			e.Run(e.Now() + time.Microsecond)
		}
	})
	b.Run("arg", func(b *testing.B) {
		e := NewEngine()
		n := 0
		fn := func(any) { n++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ScheduleArg(e.Now()+time.Microsecond, fn, nil)
			e.Run(e.Now() + time.Microsecond)
		}
	})
	b.Run("deep-queue", func(b *testing.B) {
		// 1024 pending events approximates a busy multi-flow simulation.
		e := NewEngine()
		fn := func(any) {}
		for i := 0; i < 1024; i++ {
			e.ScheduleArg(e.Now()+time.Hour+time.Duration(i), fn, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm := e.ScheduleArg(e.Now()+time.Minute, fn, nil)
			tm.Cancel()
			e.Run(e.Now() + time.Minute)
		}
	})
}

// BenchmarkEngineRearm measures the paced-sender pattern: a send timer one
// packet gap (~34 us, a 1500 B packet at 350 Mbps) out is re-armed at its
// pending time by each of three ACKs, then fires. 64 other flows keep their
// 30 ms interval and 200 ms record ticks running, so the queue holds the
// mix of near and far timers a paper-scale run does. "wheel" and
// "heap-only" re-arm in place through RearmArg; "cancel-schedule" is the
// same pattern through Cancel plus ScheduleArg, which leaves three dead
// events per packet for later pops to drain.
func BenchmarkEngineRearm(b *testing.B) {
	const gap = 34 * time.Microsecond
	run := func(b *testing.B, noWheel, inPlace bool) {
		e := NewEngine()
		e.queue.noWheel = noWheel
		var tick func(any)
		tick = func(a any) { e.ScheduleArgAfter(a.(time.Duration), tick, a) }
		for i := 0; i < 64; i++ {
			off := time.Duration(i) * 97 * time.Microsecond
			e.ScheduleArg(off+30*time.Millisecond, tick, 30*time.Millisecond)
			e.ScheduleArg(off+200*time.Millisecond, tick, 200*time.Millisecond)
		}
		send := func(any) {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := e.Now() + gap
			tm := e.ScheduleArg(at, send, nil)
			for ack := 0; ack < 3; ack++ {
				if inPlace {
					tm = e.RearmArg(tm, at, send, nil)
				} else {
					tm.Cancel()
					tm = e.ScheduleArg(at, send, nil)
				}
			}
			e.Run(at)
		}
	}
	b.Run("wheel", func(b *testing.B) { run(b, false, true) })
	b.Run("heap-only", func(b *testing.B) { run(b, true, true) })
	b.Run("cancel-schedule", func(b *testing.B) { run(b, false, false) })
}
