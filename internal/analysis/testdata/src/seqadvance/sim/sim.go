// Package sim is a seqadvance fixture with stand-in Engine and Machine
// types carrying the protected field names.
package sim

type Time int64

type Engine struct {
	now Time
	seq uint64
	// stats is not a protected field: any function may count.
	stats int64
}

type Machine struct {
	moduleFree []Time
	queueDelay []Time
	accesses   []int64
}

// advanceInline is on the allowlist: writes are legal here.
func (e *Engine) advanceInline(t Time) {
	e.now = t
	e.seq++
}

// fastForwardSpin is on the allowlist too.
func fastForwardSpin(e *Engine, m *Machine, node int) {
	e.seq++
	m.queueDelay[node] = 0
}

func count(e *Engine) { e.stats++ }

func hackEngine(e *Engine) {
	e.now = 5 // want `write to Engine.now outside the engine allowlist`
	e.seq++   // want `write to Engine.seq outside the engine allowlist`
}

func hackMachine(m *Machine, i int) {
	m.accesses[i]++     // want `write to Machine.accesses outside the engine allowlist`
	m.moduleFree[i] = 3 // want `write to Machine.moduleFree outside the engine allowlist`
}

func escape(e *Engine) *Time {
	return &e.now // want `Engine.now \(address taken\)`
}

// reads are always legal.
func read(e *Engine) Time { return e.now }

func allowed(e *Engine) {
	//simlint:allow seqadvance -- fixture: a justified suppression is honored
	e.now = 9
}
