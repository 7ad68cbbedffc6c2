package simcore

import "time"

// timerWheel is a two-level hierarchical timer wheel (calendar queue) that
// fronts the 4-ary eventHeap. The dominant event population in large meshes
// is self-rescheduling timers — pacing ticks, send timers, interval and
// record ticks — whose firing times are spread over milliseconds to seconds.
// Keeping all of them in one heap makes every schedule/cancel O(log n) with
// n in the hundreds of thousands; the wheel parks far-out events in O(1)
// slots and only migrates them into the heap when their slot comes due, so
// the heap stays small (only events within the current ~65 us granule)
// and its log factor nearly vanishes.
//
// Ordering contract. The engine's observable pop order must remain the exact
// (at, schedAt, seq) total order of a pure heap — golden simcheck digests
// and sharded-parity tests compare it bit-for-bit. The wheel preserves it
// via one invariant:
//
//	(A) every queued event with at < cur+g0 lives in the heap; an event is
//	    parked in a wheel slot only while at >= cur+g0.
//
// min() restores (A) before every peek: while the heap is empty or its top
// fires at or beyond cur+g0, it advances cur one slot at a time, flushing
// each level-0 slot into the heap (and cascading level-1 slots into level 0
// at their boundaries). Once the heap top fires inside [0, cur+g0), (A)
// says no wheel-resident event can fire earlier, so the heap top is the
// global minimum — and because migration happens strictly before the peek
// that observes it, ties re-resolve inside the heap by the full
// (at, schedAt, seq) key exactly as they would have in a heap-only engine.
// Slot membership never orders events; only the heap does.
//
// Level 0 spans slot0Count slots of slot0Gran (~65.5 us) each, ~16.8 ms
// total; level 1 spans slot1Count slots of slot1Gran (~16.8 ms) each,
// ~4.3 s total. Events beyond level 1's horizon overflow into the heap
// directly — they are rare (flow start/stop times, long idle timers), and
// the heap handles any time, so the wheel needs no wraparound bookkeeping
// beyond the modulo slot index: an event whose absolute slot number aliases
// an already-passed slot index just waits for cur to come around again,
// which happens before it is due.
//
// The granule is sized to packet spacing: everything inside the current
// granule sits in the heap, and at the paper's 350 Mbps a 1500 B packet
// serializes in ~34 us, so a ~65.5 us granule holds about two packet gaps
// per stream (2^19 ns held ~15, and every pop sifted past them). Finer
// granules gain little and cost cursor steps and memory in sparse meshes.
type timerWheel struct {
	heap eventHeap

	// cur is the wheel cursor: level-0 slots at or before cur have been
	// flushed into the heap. It is aligned to slot0Gran and advances
	// monotonically, independently of (and possibly ahead of) the engine
	// clock.
	cur time.Duration

	count0 int // events parked in slot0
	count1 int // events parked in slot1

	// Each slot is an intrusive singly-linked list through Event.next, in
	// no particular order (slot membership never orders events), so
	// parking an event never grows a slice.
	slot0 [slot0Count]*Event
	slot1 [slot1Count]*Event

	// noWheel forces every push into the heap, turning the engine into the
	// pre-wheel heap-only implementation. Tests use it to prove the wheel-fed
	// pop order is identical to the reference order.
	noWheel bool
}

const (
	slot0Shift = 16                    // slot0Gran = 2^16 ns ~ 65.5 us
	slotBits   = 8                     // 256 slots per level
	slot1Shift = slot0Shift + slotBits // slot1Gran = slot0 span ~ 16.8 ms
	slot0Count = 1 << slotBits
	slot1Count = 1 << slotBits

	slot0Gran = time.Duration(1) << slot0Shift
	slot1Gran = time.Duration(1) << slot1Shift
	span0     = slot0Gran << slotBits // level-0 horizon ~ 16.8 ms
	span1     = slot1Gran << slotBits // level-1 horizon ~ 4.3 s
)

// Event index sentinels. Heap-resident events carry their heap slot (>= 0);
// wheel-resident events are parked outside the heap but still queued.
const (
	idxFree  = -1 // not queued: fired, drained, or never scheduled
	idxWheel = -2 // parked in a timer-wheel slot, not yet migrated to the heap
)

// size reports the total queued event count across heap and wheel,
// including cancelled-but-undrained events.
func (w *timerWheel) size() int {
	return len(w.heap) + w.count0 + w.count1
}

// push enqueues ev, choosing heap or wheel slot by distance from cur.
// now is the engine clock, used only to re-anchor a fully drained wheel so
// cur does not lag arbitrarily far behind virtual time (which would push
// every future event into the overflow heap).
func (w *timerWheel) push(ev *Event, now time.Duration) {
	if w.noWheel {
		w.heap.push(ev)
		return
	}
	if w.count0 == 0 && w.count1 == 0 {
		if anchor := now &^ (slot0Gran - 1); w.cur < anchor {
			w.cur = anchor
		}
	}
	d := ev.at - w.cur
	switch {
	case d < slot0Gran:
		// Inside the current granule (or behind a cursor that ran ahead of
		// the clock): invariant (A) requires the heap.
		w.heap.push(ev)
	case d < span0:
		i := int(ev.at>>slot0Shift) & (slot0Count - 1)
		ev.index = idxWheel
		ev.next = w.slot0[i]
		w.slot0[i] = ev
		w.count0++
	case d < span1:
		i := int(ev.at>>slot1Shift) & (slot1Count - 1)
		ev.index = idxWheel
		ev.next = w.slot1[i]
		w.slot1[i] = ev
		w.count1++
	default:
		// Beyond the level-1 horizon: overflow into the heap.
		w.heap.push(ev)
	}
}

// min returns the globally earliest queued event (nil when empty), migrating
// wheel slots into the heap as needed to establish invariant (A)'s guarantee
// that the heap top is the global minimum.
func (w *timerWheel) min() *Event {
	for (w.count0 > 0 || w.count1 > 0) &&
		(len(w.heap) == 0 || w.heap[0].at-w.cur >= slot0Gran) {
		w.advance()
	}
	if len(w.heap) == 0 {
		return nil
	}
	return w.heap[0]
}

// popMin removes the heap top. Callers must have called min() immediately
// before, so the heap top is the global minimum.
func (w *timerWheel) popMin() *Event {
	return w.heap.popMin()
}

// advance moves cur forward one step, migrating due slots toward the heap.
func (w *timerWheel) advance() {
	if w.count0 == 0 {
		// Level 0 is empty, so nothing can be due before the next level-1
		// boundary: jump straight there and cascade its slot down.
		w.cur = (w.cur &^ (slot1Gran - 1)) + slot1Gran
		w.cascade()
		return
	}
	w.cur += slot0Gran
	if w.cur&(slot1Gran-1) == 0 && w.count1 > 0 {
		w.cascade()
	}
	w.flush()
}

// flush migrates the level-0 slot covering [cur, cur+slot0Gran) into the
// heap, restoring invariant (A) for the newly entered granule.
func (w *timerWheel) flush() {
	i := int(w.cur>>slot0Shift) & (slot0Count - 1)
	ev := w.slot0[i]
	w.slot0[i] = nil
	for ev != nil {
		next := ev.next
		ev.next = nil
		w.heap.push(ev)
		w.count0--
		ev = next
	}
}

// cascade re-places the level-1 slot whose boundary cur just reached. Each
// event lands in a level-0 slot or, if due within the entered granule, the
// heap; nothing can map back into level 1, because the slot's whole range
// fits inside level 0's span.
func (w *timerWheel) cascade() {
	i := int(w.cur>>slot1Shift) & (slot1Count - 1)
	ev := w.slot1[i]
	w.slot1[i] = nil
	for ev != nil {
		next := ev.next
		w.count1--
		if d := ev.at - w.cur; d < slot0Gran {
			ev.next = nil
			w.heap.push(ev)
		} else {
			k := int(ev.at>>slot0Shift) & (slot0Count - 1)
			ev.next = w.slot0[k]
			w.slot0[k] = ev
			w.count0++
		}
		ev = next
	}
}

// live counts queued events that are not cancelled, scanning heap and wheel.
func (w *timerWheel) live() int {
	n := 0
	for _, ev := range w.heap {
		if !ev.cancelled {
			n++
		}
	}
	for i := range w.slot0 {
		n += liveIn(w.slot0[i])
	}
	for i := range w.slot1 {
		n += liveIn(w.slot1[i])
	}
	return n
}

// liveIn counts the uncancelled events in one slot's list.
func liveIn(ev *Event) int {
	n := 0
	for ; ev != nil; ev = ev.next {
		if !ev.cancelled {
			n++
		}
	}
	return n
}
