package core

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAttrDefineGetSet(t *testing.T) {
	s := NewAttrSet()
	s.Define("spin-time", 10, true)
	if v := s.MustGet("spin-time"); v != 10 {
		t.Fatalf("initial value = %d, want 10", v)
	}
	if err := s.Set("spin-time", 25, OwnerSelf); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v := s.MustGet("spin-time"); v != 25 {
		t.Fatalf("value = %d, want 25", v)
	}
}

func TestAttrUnknown(t *testing.T) {
	s := NewAttrSet()
	if _, err := s.Get("nope"); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("Get unknown: %v, want ErrUnknownAttr", err)
	}
	if err := s.Set("nope", 1, OwnerSelf); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("Set unknown: %v, want ErrUnknownAttr", err)
	}
}

func TestAttrImmutable(t *testing.T) {
	s := NewAttrSet()
	s.Define("owner", 0, false)
	if err := s.Set("owner", 5, OwnerSelf); !errors.Is(err, ErrImmutable) {
		t.Fatalf("Set immutable: %v, want ErrImmutable", err)
	}
	if v := s.MustGet("owner"); v != 0 {
		t.Fatalf("immutable attribute changed to %d", v)
	}
}

func TestAttrOwnership(t *testing.T) {
	s := NewAttrSet()
	s.Define("spin-time", 10, true)
	agent := OwnerID(42)
	if err := s.Acquire("spin-time", agent); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// Implicit (self) reconfiguration must now be rejected.
	if err := s.Set("spin-time", 99, OwnerSelf); !errors.Is(err, ErrOwned) {
		t.Fatalf("Set while owned: %v, want ErrOwned", err)
	}
	// The holder can write.
	if err := s.Set("spin-time", 99, agent); err != nil {
		t.Fatalf("holder Set: %v", err)
	}
	// Another agent cannot acquire or release.
	if err := s.Acquire("spin-time", OwnerID(7)); !errors.Is(err, ErrOwned) {
		t.Fatalf("second Acquire: %v, want ErrOwned", err)
	}
	if err := s.Release("spin-time", OwnerID(7)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign Release: %v, want ErrNotOwner", err)
	}
	if err := s.Release("spin-time", agent); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if err := s.Set("spin-time", 5, OwnerSelf); err != nil {
		t.Fatalf("Set after release: %v", err)
	}
}

func TestAttrDuplicateDefinePanics(t *testing.T) {
	s := NewAttrSet()
	s.Define("x", 0, true)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Define did not panic")
		}
	}()
	s.Define("x", 1, true)
}

func TestAttrCostAccounting(t *testing.T) {
	s := NewAttrSet()
	s.Define("a", 0, true)
	s.MustGet("a")                 // 1R
	_ = s.Set("a", 1, OwnerSelf)   // 1R 1W
	_ = s.Acquire("a", OwnerID(1)) // 1R 1W
	_ = s.Release("a", OwnerID(1)) // 1R 1W
	got := s.Cost()
	if got.Reads != 4 || got.Writes != 3 {
		t.Fatalf("cost = %v, want 4R 3W", got)
	}
}

func TestAttrSnapshotAndString(t *testing.T) {
	s := NewAttrSet()
	s.Define("spin-time", 10, true)
	s.Define("sleep-time", 1, true)
	if got, want := s.String(), "sleep-time=1 spin-time=10"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestMonitorSamplingRate(t *testing.T) {
	m := NewMonitor()
	val := int64(0)
	m.AddSensor("waiting", 2, func() int64 { val++; return val })
	var seen []int64
	m.sink = func(s Sample) { seen = append(seen, s.Value) }
	for i := 0; i < 10; i++ {
		m.Probe("waiting")
	}
	// Every other probe: 5 samples, and the read fn ran exactly 5 times.
	if len(seen) != 5 {
		t.Fatalf("samples = %d, want 5", len(seen))
	}
	if val != 5 {
		t.Fatalf("sensor read %d times, want 5 (read must be lazy)", val)
	}
	s := m.Sensor("waiting")
	if s.Probes() != 10 || s.Samples() != 5 {
		t.Fatalf("probes/samples = %d/%d, want 10/5", s.Probes(), s.Samples())
	}
}

func TestMonitorUnknownSensorNoop(t *testing.T) {
	m := NewMonitor()
	if _, ok := m.Probe("ghost"); ok {
		t.Fatal("probe of unknown sensor returned a sample")
	}
}

func TestMonitorDiversity(t *testing.T) {
	m := NewMonitor()
	m.AddSensor("a", 1, func() int64 { return 1 })
	m.AddSensor("b", 3, func() int64 { return 2 })
	if m.Diversity() != 2 {
		t.Fatalf("Diversity = %d, want 2", m.Diversity())
	}
}

func TestMethodTableInstall(t *testing.T) {
	mt := NewMethodTable()
	mt.Define("scheduler", 3, "fcfs", "priority", "handoff")
	if v, _ := mt.Installed("scheduler"); v != "fcfs" {
		t.Fatalf("initial variant = %q, want fcfs", v)
	}
	cost, err := mt.Install("scheduler", "priority")
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	// 3 subcomponents + set flag + reset flag = 5 writes (§5.2).
	if cost.Writes != 5 || cost.Reads != 0 {
		t.Fatalf("scheduler reconfig cost = %v, want 0R 5W", cost)
	}
	if v, _ := mt.Installed("scheduler"); v != "priority" {
		t.Fatalf("variant = %q, want priority", v)
	}
	if _, err := mt.Install("scheduler", "bogus"); !errors.Is(err, ErrUnknownVariant) {
		t.Fatalf("bogus variant: %v, want ErrUnknownVariant", err)
	}
	if _, err := mt.Install("nope", "fcfs"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("bogus method: %v, want ErrUnknownMethod", err)
	}
}

func TestCostModelAddDurationString(t *testing.T) {
	c := CostModel{Reads: 1, Writes: 1}.Add(CostModel{Writes: 4})
	if c.Reads != 1 || c.Writes != 5 {
		t.Fatalf("Add = %+v", c)
	}
	if d := c.Duration(10, 20); d != 110 {
		t.Fatalf("Duration = %d, want 110", d)
	}
	if s := c.String(); s != "1R 5W" {
		t.Fatalf("String = %q", s)
	}
}

func TestObjectFeedbackLoop(t *testing.T) {
	o := NewObject("lock")
	o.Attrs.Define("spin-time", 10, true)
	waiting := int64(0)
	o.Monitor.AddSensor("waiting", 2, func() int64 { return waiting })
	o.SetPolicy(SimpleAdapt{SpinAttr: "spin-time", WaitingThreshold: 3, Step: 5, MaxSpin: 100})

	// Two probes → one sample with 2 waiters (≤ threshold) → spins += 5.
	waiting = 2
	o.Monitor.Probe("waiting")
	o.Monitor.Probe("waiting")
	if v := o.Attrs.MustGet("spin-time"); v != 15 {
		t.Fatalf("after light contention spin-time = %d, want 15", v)
	}

	// Heavy contention → spins -= 10 per sample until pure blocking.
	waiting = 50
	for i := 0; i < 10; i++ {
		o.Monitor.Probe("waiting")
	}
	if v := o.Attrs.MustGet("spin-time"); v != 0 {
		t.Fatalf("under overload spin-time = %d, want 0 (pure blocking)", v)
	}

	// No waiters → pure spin.
	waiting = 0
	o.Monitor.Probe("waiting")
	o.Monitor.Probe("waiting")
	if v := o.Attrs.MustGet("spin-time"); v != 100 {
		t.Fatalf("with no waiters spin-time = %d, want MaxSpin", v)
	}

	st := o.Stats()
	if st.Applied == 0 || st.Decisions != st.Applied+st.Rejected {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	if c := o.ReconfigCost(); c.Writes == 0 {
		t.Fatalf("reconfig cost not accounted: %v", c)
	}
}

func TestObjectExternalOwnershipBlocksAdaptation(t *testing.T) {
	o := NewObject("lock")
	o.Attrs.Define("spin-time", 10, true)
	o.Monitor.AddSensor("waiting", 1, func() int64 { return 100 })
	o.SetPolicy(DefaultSimpleAdapt("spin-time"))

	agent := OwnerID(9)
	if err := o.Attrs.Acquire("spin-time", agent); err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	o.Monitor.Probe("waiting")
	if v := o.Attrs.MustGet("spin-time"); v != 10 {
		t.Fatalf("owned attribute changed by internal adaptation: %d", v)
	}
	if o.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestObjectApplyMethodDecision(t *testing.T) {
	o := NewObject("lock")
	o.Methods.Define("scheduler", 3, "fcfs", "priority")
	if err := o.Apply(Decision{Method: "scheduler", Variant: "priority"}, OwnerSelf); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if v, _ := o.Methods.Installed("scheduler"); v != "priority" {
		t.Fatalf("installed = %q", v)
	}
	if c := o.ReconfigCost(); c.Writes != 5 {
		t.Fatalf("cost = %v, want 0R 5W", c)
	}
}

func TestObjectConfigurationString(t *testing.T) {
	o := NewObject("lock")
	o.Attrs.Define("spin-time", 10, true)
	o.Methods.Define("scheduler", 3, "fcfs")
	got := o.Configuration()
	want := "scheduler=fcfs; spin-time=10"
	if got != want {
		t.Fatalf("Configuration = %q, want %q", got, want)
	}
}

// Property: SimpleAdapt keeps the spin attribute within [0, MaxSpin] for
// any sequence of waiter counts.
func TestSimpleAdaptBoundsProperty(t *testing.T) {
	f := func(waiters []uint8, threshold uint8, step uint8) bool {
		p := SimpleAdapt{
			SpinAttr:         "spin",
			WaitingThreshold: int64(threshold%16) + 1,
			Step:             int64(step%32) + 1,
			MaxSpin:          200,
		}
		o := NewObject("x")
		o.Attrs.Define("spin", 50, true)
		o.Monitor.AddSensor("w", 1, nil)
		for _, w := range waiters {
			s := Sample{Sensor: "w", Value: int64(w % 32)}
			for _, d := range p.React(s, o) {
				if err := o.Apply(d, OwnerSelf); err != nil {
					return false
				}
			}
			v := o.Attrs.MustGet("spin")
			if v < 0 || v > p.MaxSpin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with zero waiters SimpleAdapt always lands on MaxSpin, and
// with persistent overload it always reaches 0.
func TestSimpleAdaptConvergenceProperty(t *testing.T) {
	f := func(start uint8) bool {
		p := SimpleAdapt{SpinAttr: "spin", WaitingThreshold: 3, Step: 7, MaxSpin: 150}
		o := NewObject("x")
		o.Attrs.Define("spin", int64(start), true)

		for _, d := range p.React(Sample{Value: 0}, o) {
			_ = o.Apply(d, OwnerSelf)
		}
		if o.Attrs.MustGet("spin") != 150 {
			return false
		}
		for i := 0; i < 100; i++ {
			for _, d := range p.React(Sample{Value: 1000}, o) {
				_ = o.Apply(d, OwnerSelf)
			}
		}
		return o.Attrs.MustGet("spin") == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
