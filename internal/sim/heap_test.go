package sim

import (
	"sort"
	"testing"
)

// pushEv and popEv adapt the heap's field-wise push and pop to whole
// events for the tests below.
func pushEv(q *eventQueue, ev event) { q.push(ev.when, ev.at, ev.seq, ev.fn, ev.coro) }

func popEv(q *eventQueue) event {
	var ev event
	q.pop(&ev)
	return ev
}

// popAll drains q and returns the events in pop order.
func popAll(q *eventQueue) []event {
	out := make([]event, 0, q.len())
	for q.len() > 0 {
		out = append(out, popEv(q))
	}
	return out
}

// refSort returns evs sorted by the (when, at, seq) total order — the
// specification the heap must match exactly.
func refSort(evs []event) []event {
	ref := append([]event(nil), evs...)
	sort.Slice(ref, func(i, j int) bool { return ref[i].less(&ref[j]) })
	return ref
}

// TestEventQueueMatchesReferenceSort drives the 4-ary heap with many
// randomized schedules — duplicate times, interleaved pushes and pops — and
// checks every pop sequence against a reference sort.
func TestEventQueueMatchesReferenceSort(t *testing.T) {
	rng := NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		span := 1 + rng.Intn(20) // small span forces heavy seq tie-breaking
		var q eventQueue
		var all []event
		seq := uint64(0)
		push := func() {
			seq++
			ev := event{when: Time(rng.Intn(span)), at: Time(rng.Intn(3)), seq: seq}
			all = append(all, ev)
			pushEv(&q, ev)
		}
		var popped []event
		for i := 0; i < n; i++ {
			push()
			// Interleave pops so the heap is exercised at many sizes, not
			// just fill-then-drain.
			if q.len() > 0 && rng.Intn(3) == 0 {
				popped = append(popped, popEv(&q))
			}
		}
		popped = append(popped, popAll(&q)...)
		if len(popped) != len(all) {
			t.Fatalf("trial %d: popped %d events, pushed %d", trial, len(popped), len(all))
		}
		// Interleaved pops may legally run ahead of later pushes, so check
		// completeness here (nothing lost, nothing duplicated, nothing
		// corrupted); strict ordering is covered by the drain-only test.
		seen := map[uint64]Time{}
		for _, ev := range popped {
			if _, dup := seen[ev.seq]; dup {
				t.Fatalf("trial %d: seq %d popped twice", trial, ev.seq)
			}
			seen[ev.seq] = ev.when
		}
		for _, ev := range all {
			if w, ok := seen[ev.seq]; !ok || w != ev.when {
				t.Fatalf("trial %d: event seq=%d lost or corrupted", trial, ev.seq)
			}
		}
	}
}

// TestEventQueueDrainOrder checks the strict pop order on fill-then-drain
// schedules, where pop order must exactly equal the reference sort.
func TestEventQueueDrainOrder(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		var q eventQueue
		var all []event
		for i := 0; i < n; i++ {
			ev := event{when: Time(rng.Intn(30)), at: Time(rng.Intn(3)), seq: uint64(i + 1)}
			all = append(all, ev)
			pushEv(&q, ev)
		}
		got := popAll(&q)
		ref := refSort(all)
		for i := range ref {
			if got[i].when != ref[i].when || got[i].at != ref[i].at || got[i].seq != ref[i].seq {
				t.Fatalf("trial %d: pop %d = (%v,%v,%d), want (%v,%v,%d)",
					trial, i, got[i].when, got[i].at, got[i].seq, ref[i].when, ref[i].at, ref[i].seq)
			}
		}
	}
}

// TestEngineOrderMatchesReferenceSort checks the property end to end: a
// random mix of At and After schedules fires in (when, at, seq) order.
func TestEngineOrderMatchesReferenceSort(t *testing.T) {
	rng := NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		var fired []int
		n := 1 + rng.Intn(100)
		type stamp struct {
			id   int
			when Time
		}
		var stamps []stamp
		for i := 0; i < n; i++ {
			i := i
			when := Time(rng.Intn(25))
			stamps = append(stamps, stamp{id: i, when: when})
			if rng.Intn(2) == 0 {
				e.At(when, func() { fired = append(fired, i) })
			} else {
				e.After(when, func() { fired = append(fired, i) }) // now==0, same time
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(stamps, func(a, b int) bool { return stamps[a].when < stamps[b].when })
		for i := range stamps {
			if fired[i] != stamps[i].id {
				t.Fatalf("trial %d: firing order diverges at %d: got id %d, want %d",
					trial, i, fired[i], stamps[i].id)
			}
		}
	}
}

// FuzzEventQueue feeds arbitrary byte strings as (op, when) programs to the
// heap: each byte either pushes an event at a derived (when, at) or pops,
// and the final drain must come out sorted by (when, at, seq) with nothing
// lost.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 0x80, 7, 7, 7})
	f.Add([]byte{})
	f.Add([]byte{0xaa, 0x55, 0x00, 0xff, 0x10, 0x20, 0x30})
	f.Fuzz(func(t *testing.T, program []byte) {
		var q eventQueue
		seq := uint64(0)
		live := map[uint64]Time{}
		var lastPopped *event
		for _, b := range program {
			if b&0x80 != 0 && q.len() > 0 {
				ev := popEv(&q)
				want, ok := live[ev.seq]
				if !ok || want != ev.when {
					t.Fatalf("popped unknown/corrupt event (when=%v seq=%d)", ev.when, ev.seq)
				}
				delete(live, ev.seq)
				// Within a drain-only stretch pops must be non-decreasing in
				// (when, at, seq); a push can legally go below the last popped
				// value, so reset the watermark on push.
				if lastPopped != nil && ev.less(lastPopped) {
					t.Fatalf("pop went backwards: (%v,%d) after (%v,%d)",
						ev.when, ev.seq, lastPopped.when, lastPopped.seq)
				}
				evCopy := ev
				lastPopped = &evCopy
			} else {
				seq++
				ev := event{when: Time(b & 0x7f), at: Time(b % 3), seq: seq}
				live[ev.seq] = ev.when
				pushEv(&q, ev)
				lastPopped = nil
			}
		}
		// Drain: strictly ordered and complete.
		var prev *event
		for q.len() > 0 {
			ev := popEv(&q)
			if prev != nil && ev.less(prev) {
				t.Fatalf("drain out of order: (%v,%d) after (%v,%d)", ev.when, ev.seq, prev.when, prev.seq)
			}
			want, ok := live[ev.seq]
			if !ok || want != ev.when {
				t.Fatalf("drained unknown/corrupt event (when=%v seq=%d)", ev.when, ev.seq)
			}
			delete(live, ev.seq)
			evCopy := ev
			prev = &evCopy
		}
		if len(live) != 0 {
			t.Fatalf("%d events lost in the heap", len(live))
		}
	})
}
