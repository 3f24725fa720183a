package sim

import (
	"testing"
)

// fakeAccessor records charged time for cell/latency tests.
type fakeAccessor struct {
	node    int
	charged Time
}

func (f *fakeAccessor) Node() int      { return f.node }
func (f *fakeAccessor) Advance(d Time) { f.charged += d }

func TestConfigDefaults(t *testing.T) {
	m := NewMachine(Config{})
	cfg := m.Config()
	if cfg.Nodes != 32 {
		t.Errorf("Nodes = %d, want 32", cfg.Nodes)
	}
	if cfg.RemoteAccess != 4*cfg.LocalAccess {
		t.Errorf("RemoteAccess = %v, want 4×local (%v)", cfg.RemoteAccess, 4*cfg.LocalAccess)
	}
	if cfg.ContextSwitch <= 0 || cfg.Wakeup <= 0 || cfg.Instr <= 0 {
		t.Errorf("cost defaults not filled: %+v", cfg)
	}
}

func TestAccessCostLocalVsRemote(t *testing.T) {
	m := NewMachine(Config{Nodes: 4, LocalAccess: 100, RemoteAccess: 400})
	if got := m.AccessCost(2, 2); got != 100 {
		t.Errorf("local cost = %v, want 100", got)
	}
	if got := m.AccessCost(2, 3); got != 400 {
		t.Errorf("remote cost = %v, want 400", got)
	}
}

func TestCellChargesAndMutates(t *testing.T) {
	m := NewMachine(Config{Nodes: 2, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5})
	c := m.NewCell(0, "x", 7)

	local := &fakeAccessor{node: 0}
	if v := c.Load(local); v != 7 {
		t.Errorf("Load = %d, want 7", v)
	}
	if local.charged != 10 {
		t.Errorf("local Load charged %v, want 10", local.charged)
	}

	remote := &fakeAccessor{node: 1}
	c.Store(remote, 9)
	if remote.charged != 40 {
		t.Errorf("remote Store charged %v, want 40", remote.charged)
	}
	if c.Peek() != 9 {
		t.Errorf("Peek = %d, want 9", c.Peek())
	}

	remote.charged = 0
	if old := c.AtomicOr(remote, 0x10); old != 9 {
		t.Errorf("AtomicOr old = %d, want 9", old)
	}
	if remote.charged != 45 {
		t.Errorf("remote AtomicOr charged %v, want 45", remote.charged)
	}
	if c.Peek() != 0x19 {
		t.Errorf("after AtomicOr value = %#x, want 0x19", c.Peek())
	}
}

// TestCellAtomicAddAndCAS prices every Cell primitive from a local and
// a remote accessor: a plain reference (Load, Store) costs the access,
// a read-modify-write (AtomicOr, AtomicAdd, CompareAndSwap whether it
// swaps or not) the access plus AtomicExtra.
func TestCellAtomicAddAndCAS(t *testing.T) {
	m := NewMachine(Config{Nodes: 2, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 5})
	c := m.NewCell(0, "n", 5)
	for _, acc := range []struct {
		name       string
		node       int
		plain, rmw Time
	}{{"local", 0, 10, 15}, {"remote", 1, 40, 45}} {
		a := &fakeAccessor{node: acc.node}
		price := func(op string, want Time, do func()) {
			t.Helper()
			a.charged = 0
			do()
			if a.charged != want {
				t.Errorf("%s %s charged %v, want %v", acc.name, op, a.charged, want)
			}
		}
		c.Poke(5)
		price("Load", acc.plain, func() {
			if v := c.Load(a); v != 5 {
				t.Errorf("Load = %d, want 5", v)
			}
		})
		price("Store", acc.plain, func() { c.Store(a, 5) })
		price("AtomicOr", acc.rmw, func() {
			if old := c.AtomicOr(a, 0); old != 5 {
				t.Errorf("AtomicOr old = %d, want 5", old)
			}
		})
		price("AtomicAdd", acc.rmw, func() {
			if got := c.AtomicAdd(a, -2); got != 3 {
				t.Errorf("AtomicAdd = %d, want 3", got)
			}
		})
		price("CompareAndSwap success", acc.rmw, func() {
			if !c.CompareAndSwap(a, 3, 10) {
				t.Error("CAS(3,10) failed on value 3")
			}
		})
		price("CompareAndSwap failure", acc.rmw, func() {
			if c.CompareAndSwap(a, 3, 11) {
				t.Error("CAS(3,11) succeeded on value 10")
			}
		})
		if c.Peek() != 10 {
			t.Errorf("%s: value = %d, want 10", acc.name, c.Peek())
		}
	}
}

func TestCellTestAndSetSemantics(t *testing.T) {
	m := NewMachine(Config{Nodes: 1})
	c := m.NewCell(0, "lock", 0)
	a := &fakeAccessor{node: 0}
	if old := c.AtomicOr(a, 1); old != 0 {
		t.Fatalf("first TAS got %d, want 0 (acquired)", old)
	}
	if old := c.AtomicOr(a, 1); old != 1 {
		t.Fatalf("second TAS got %d, want 1 (busy)", old)
	}
	c.Store(a, 0)
	if old := c.AtomicOr(a, 1); old != 0 {
		t.Fatalf("TAS after release got %d, want 0", old)
	}
}

func TestNewCellBadNodePanics(t *testing.T) {
	m := NewMachine(Config{Nodes: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("NewCell on node 5 of a 2-node machine did not panic")
		}
	}()
	m.NewCell(5, "bad", 0)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{40790, "40.79µs"},
		{3207 * Millisecond, "3.207s"},
		{2636 * Microsecond, "2.64ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestModuleContentionQueues(t *testing.T) {
	m := NewMachine(Config{Nodes: 2, LocalAccess: 10, RemoteAccess: 40, AtomicExtra: 0, ModuleService: 100})
	cell := m.NewCell(0, "hot", 0)
	var costs []Time
	for i := 0; i < 3; i++ {
		c := m.Engine().Spawn("a", func(co *Coro) {
			a := &coroAccessor{c: co}
			start := co.Now()
			cell.Load(a)
			costs = append(costs, co.Now()-start)
		})
		c.Start(0)
	}
	if err := m.Engine().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Three simultaneous accesses serialize at one per 100: delays 0, 100,
	// 200 on top of the base latency of 10 (accessor node is 0 → local).
	want := []Time{10, 110, 210}
	for i := range want {
		if costs[i] != want[i] {
			t.Fatalf("costs = %v, want %v", costs, want)
		}
	}
	if m.ModuleQueueDelay(0) != 300 {
		t.Fatalf("queue delay = %v, want 300", m.ModuleQueueDelay(0))
	}
	if m.ModuleAccesses(0) != 3 {
		t.Fatalf("accesses = %d, want 3", m.ModuleAccesses(0))
	}
}

func TestModuleContentionDisabledByDefault(t *testing.T) {
	m := NewMachine(Config{Nodes: 1, LocalAccess: 10})
	cell := m.NewCell(0, "x", 0)
	c := m.Engine().Spawn("a", func(co *Coro) {
		a := &coroAccessor{c: co}
		start := co.Now()
		cell.Load(a)
		cell.Load(a)
		if d := co.Now() - start; d != 20 {
			t.Errorf("two back-to-back loads cost %v, want 20 (no queuing)", d)
		}
	})
	c.Start(0)
	if err := m.Engine().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPresets(t *testing.T) {
	gp := GP1000Config()
	uma := UMAConfig()
	norma := NORMAConfig()
	hot := HotSpotConfig()
	if uma.RemoteAccess != uma.LocalAccess {
		t.Error("UMA remote != local")
	}
	if norma.RemoteAccess <= gp.RemoteAccess {
		t.Error("NORMA remote not above GP1000's")
	}
	if hot.ModuleService == 0 {
		t.Error("HotSpot preset has no module service time")
	}
}
