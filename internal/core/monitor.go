package core

// Sample is one monitored value vᵢ delivered from the monitor module to the
// adaptation policy.
type Sample struct {
	// Sensor is the name of the sensor that produced the sample.
	Sensor string
	// Value is the sensed value.
	Value int64
	// Seq is the sample's 1-based sequence number within its sensor.
	Seq uint64
}

// Sensor is one data-collecting probe inserted at an instrumentation point
// (§5.1: the customized lock monitor senses the number of waiting threads
// during every other unlock). Probing is cheap when no sample is due: one
// counter increment.
type Sensor struct {
	name string
	// every is the sampling rate: a sample is taken on every every-th
	// probe (1 = every probe, 2 = every other probe, ...).
	every int
	read  func() int64

	probes  uint64
	samples uint64
}

// Probes reports how many times the instrumentation point was hit.
func (s *Sensor) Probes() uint64 { return s.probes }

// Samples reports how many samples were actually taken.
func (s *Sensor) Samples() uint64 { return s.samples }

// Monitor is the monitor module M: a set of sensors whose samples are
// delivered synchronously to a sink (the object's feedback loop). The
// number of sensors is the paper's "diversity factor"; each sensor's
// every-N setting is its sampling rate.
type Monitor struct {
	byName map[string]*Sensor
	sink   func(Sample)
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{byName: make(map[string]*Sensor)}
}

// AddSensor registers a sensor. every < 1 is treated as 1 (sample every
// probe). read is called only when a sample is due.
func (m *Monitor) AddSensor(name string, every int, read func() int64) {
	if _, dup := m.byName[name]; dup {
		panic("core: sensor " + name + " defined twice")
	}
	if every < 1 {
		every = 1
	}
	m.byName[name] = &Sensor{name: name, every: every, read: read}
}

// Sensor returns the named sensor, or nil.
func (m *Monitor) Sensor(name string) *Sensor { return m.byName[name] }

// Diversity returns the number of registered sensors (the diversity factor
// of the monitored information).
func (m *Monitor) Diversity() int { return len(m.byName) }

// Probe hits the named sensor's instrumentation point. If a sample is due
// per the sampling rate, the sensor is read and the sample is delivered to
// the sink; the sample is returned with ok=true. Probing an unknown sensor
// is a no-op (instrumentation may outlive sensor configurations).
func (m *Monitor) Probe(name string) (Sample, bool) {
	s := m.byName[name]
	if s == nil {
		return Sample{}, false
	}
	s.probes++
	if s.probes%uint64(s.every) != 0 {
		return Sample{}, false
	}
	s.samples++
	smp := Sample{Sensor: s.name, Value: s.read(), Seq: s.samples}
	if m.sink != nil {
		m.sink(smp)
	}
	return smp, true
}
