package core

import (
	"testing"
	"testing/quick"
)

// recordingPolicy captures the samples it receives and decides nothing.
type recordingPolicy struct {
	values []int64
}

func (p *recordingPolicy) React(s Sample, o *Object) []Decision {
	p.values = append(p.values, s.Value)
	return nil
}

func TestEWMASmooths(t *testing.T) {
	rec := &recordingPolicy{}
	p := &EWMA{Alpha: 1, Den: 4, Inner: rec}
	o := NewObject("t")
	for _, v := range []int64{100, 0, 0, 0} {
		p.React(Sample{Value: v}, o)
	}
	// First sample initializes the average; later zeros decay it.
	if rec.values[0] != 100 {
		t.Fatalf("first smoothed value = %d, want 100", rec.values[0])
	}
	for i := 1; i < len(rec.values); i++ {
		if rec.values[i] >= rec.values[i-1] {
			t.Fatalf("smoothed values not decaying: %v", rec.values)
		}
	}
	if rec.values[3] == 0 {
		t.Fatalf("EWMA reached 0 too fast: %v", rec.values)
	}
}

func TestEWMADegenerateConfigPassesThrough(t *testing.T) {
	rec := &recordingPolicy{}
	p := &EWMA{Alpha: 0, Den: 0, Inner: rec}
	o := NewObject("t")
	p.React(Sample{Value: 42}, o)
	if rec.values[0] != 42 {
		t.Fatalf("degenerate EWMA altered the sample: %v", rec.values)
	}
}

func TestSchedulerAdaptSwitchesVariants(t *testing.T) {
	o := NewObject("lock")
	o.Methods.Define("scheduler", 3, "fcfs", "priority")
	p := SchedulerAdapt{Method: "scheduler", Calm: "fcfs", Busy: "priority", QueueThreshold: 3}
	o.SetPolicy(p)
	o.Monitor.AddSensor("w", 1, nil)

	apply := func(v int64) {
		for _, d := range p.React(Sample{Value: v}, o) {
			if err := o.Apply(d, OwnerSelf); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(1)
	if v, _ := o.Methods.Installed("scheduler"); v != "fcfs" {
		t.Fatalf("calm: installed %q, want fcfs", v)
	}
	apply(10)
	if v, _ := o.Methods.Installed("scheduler"); v != "priority" {
		t.Fatalf("busy: installed %q, want priority", v)
	}
	// No redundant decision when already in the right variant.
	if ds := p.React(Sample{Value: 10}, o); len(ds) != 0 {
		t.Fatalf("redundant decision emitted: %v", ds)
	}
	apply(0)
	if v, _ := o.Methods.Installed("scheduler"); v != "fcfs" {
		t.Fatalf("calm again: installed %q, want fcfs", v)
	}
}

func TestSchedulerAdaptUnknownMethodIsNoop(t *testing.T) {
	o := NewObject("lock")
	p := SchedulerAdapt{Method: "ghost", Calm: "a", Busy: "b", QueueThreshold: 1}
	if ds := p.React(Sample{Value: 100}, o); ds != nil {
		t.Fatalf("decisions for unknown method: %v", ds)
	}
}

// Property: EWMA output always stays within the min/max envelope of the
// inputs seen so far.
func TestEWMAEnvelopeProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		rec := &recordingPolicy{}
		p := &EWMA{Alpha: 1, Den: 3, Inner: rec}
		o := NewObject("t")
		min, max := int64(vals[0]), int64(vals[0])
		for _, v := range vals {
			x := int64(v)
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
			p.React(Sample{Value: x}, o)
		}
		for _, s := range rec.values {
			if s < min || s > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
