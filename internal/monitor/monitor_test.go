package monitor

import (
	"testing"

	"repro/internal/cthreads"
	"repro/internal/sim"
)

func monSys(procs int) *cthreads.System {
	return cthreads.New(sim.Config{
		Nodes:         procs,
		LocalAccess:   10,
		RemoteAccess:  40,
		AtomicExtra:   5,
		Instr:         1,
		ContextSwitch: 100,
		Wakeup:        200,
		Seed:          1,
	})
}

func TestRecordsFlowToSubscriber(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1})
	var got []Record
	m.Subscribe(func(mt *cthreads.Thread, r Record) { got = append(got, r) })
	mt := m.Start()
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		for i := 0; i < 10; i++ {
			m.Probe(th, 7, int64(i))
			th.Advance(500)
		}
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.Sensor != 7 || r.Value != int64(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if mt.State() != cthreads.StateDone {
		t.Fatalf("monitor thread state %v, want done", mt.State())
	}
}

func TestDeliveryLagIsPositive(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1})
	m.Subscribe(func(mt *cthreads.Thread, r Record) {})
	m.Start()
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		for i := 0; i < 20; i++ {
			m.Probe(th, 1, int64(i))
			th.Advance(1000)
		}
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.Stats()
	if st.Delivered != 20 {
		t.Fatalf("delivered = %d, want 20", st.Delivered)
	}
	// Records wait for the poll; the mean lag reflects the loose coupling.
	if st.MeanLag <= 0 {
		t.Fatalf("MeanLag = %v, want > 0", st.MeanLag)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1})
	m.Subscribe(func(mt *cthreads.Thread, r Record) {})
	m.Start()
	const extra = 10
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		for i := 0; i < bufferCap+extra; i++ {
			m.Probe(th, 1, int64(i)) // all before the first poll
		}
		if th.Now() >= poll {
			t.Errorf("probes ended at %v, after the first poll", th.Now())
		}
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.Stats()
	if st.Records != bufferCap+extra || st.Delivered != bufferCap || st.Drops != extra {
		t.Fatalf("records/delivered/drops = %d/%d/%d, want %d/%d/%d",
			st.Records, st.Delivered, st.Drops, bufferCap+extra, bufferCap, extra)
	}
}

func TestProbeChargesRemoteDelivery(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1})
	m.Start()
	var cost sim.Time
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		start := th.Now()
		m.Probe(th, 1, 42)
		cost = th.Now() - start
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two remote references at 40 each.
	if cost != 80 {
		t.Fatalf("probe cost = %v, want 80", cost)
	}
}

func TestDoubleStartPanics(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1})
	m.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
		m.RequestStop()
		_ = sys.Run()
	}()
	m.Start()
}

// Forwarding each batch to the central monitor keeps the monitor thread
// busy, so a record that arrives after a batch waits for the forwarding
// as well as the poll and its delivery lag grows — the loosening of the feedback loop §3 warns
// about.
func TestCentralForwardDelaysDeliveries(t *testing.T) {
	sys := monSys(2)
	m := NewLocal(sys, Config{Node: 1})
	var delivered []sim.Time
	m.Subscribe(func(mt *cthreads.Thread, r Record) { delivered = append(delivered, mt.Now()) })
	m.Start()
	sys.Fork(0, "app", func(th *cthreads.Thread) {
		m.Probe(th, 1, 0)
		th.Advance(poll + 1000) // past the first batch's delivery
		m.Probe(th, 1, 1)
		m.RequestStop()
	})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(delivered) != 2 || m.Stats().Batches != 2 {
		t.Fatalf("delivered %d records in %d batches, want 2 in 2", len(delivered), m.Stats().Batches)
	}
	instr := sys.Machine().InstrCost(1)
	if gap, want := delivered[1]-delivered[0], poll+(centralForwardSteps+perRecordSteps)*instr; gap != want {
		t.Fatalf("gap between batches = %d, want forward + poll + processing = %d", int64(gap), int64(want))
	}
}
