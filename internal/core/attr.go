package core

import (
	"fmt"
	"sort"
	"strings"
)

// Attr is one mutable attribute Uᵢ ∈ CV: a named integer value with a
// mutability flag and time-dependent ownership (§3). Values are int64
// because every attribute in the paper's lock objects (spin-time,
// delay-time, sleep-time, timeout, thresholds) is a count or a duration.
type Attr struct {
	value   int64
	mutable bool
	owner   OwnerID
}

// AttrSet is the mutable-attribute sub-state CV of an adaptive object,
// with read/write cost accounting. It is not internally synchronized: the
// simulated substrate is sequential by construction, and the native
// substrate wraps it under its own lock.
type AttrSet struct {
	attrs map[string]*Attr
	cost  CostModel
}

// NewAttrSet returns an empty attribute set.
func NewAttrSet() *AttrSet {
	return &AttrSet{attrs: make(map[string]*Attr)}
}

// Define adds an attribute with an initial value. Defining an existing
// name panics: attribute layouts are fixed at object construction.
func (s *AttrSet) Define(name string, init int64, mutable bool) {
	if _, dup := s.attrs[name]; dup {
		panic(fmt.Sprintf("core: attribute %q defined twice", name))
	}
	s.attrs[name] = &Attr{value: init, mutable: mutable}
}

// Get reads an attribute value, counting one read.
func (s *AttrSet) Get(name string) (int64, error) {
	a, ok := s.attrs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownAttr, name)
	}
	s.cost.Reads++
	return a.value, nil
}

// MustGet reads an attribute that is known to exist; it panics otherwise.
func (s *AttrSet) MustGet(name string) int64 {
	v, err := s.Get(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Set writes an attribute on behalf of agent by, counting one read (the
// mutability/ownership check) and one write. It fails if the attribute is
// immutable, or if another agent holds explicit ownership.
func (s *AttrSet) Set(name string, v int64, by OwnerID) error {
	a, ok := s.attrs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAttr, name)
	}
	s.cost.Reads++
	if !a.mutable {
		return fmt.Errorf("%w: %q", ErrImmutable, name)
	}
	if a.owner != OwnerNone && a.owner != by {
		return fmt.Errorf("%w: %q held by %d", ErrOwned, name, a.owner)
	}
	a.value = v
	s.cost.Writes++
	return nil
}

// Acquire takes explicit ownership of an attribute for an external agent
// (the paper's "acquisition" method, §5.1). It costs one read-modify-write
// (counted as a read plus a write) and fails if another agent holds it.
func (s *AttrSet) Acquire(name string, by OwnerID) error {
	a, ok := s.attrs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAttr, name)
	}
	s.cost.Reads++
	if a.owner != OwnerNone && a.owner != by {
		return fmt.Errorf("%w: %q held by %d", ErrOwned, name, a.owner)
	}
	a.owner = by
	s.cost.Writes++
	return nil
}

// Release drops explicit ownership. Only the holder may release.
func (s *AttrSet) Release(name string, by OwnerID) error {
	a, ok := s.attrs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAttr, name)
	}
	s.cost.Reads++
	if a.owner != by {
		return fmt.Errorf("%w: %q", ErrNotOwner, name)
	}
	a.owner = OwnerNone
	s.cost.Writes++
	return nil
}

// Cost returns reads and writes accumulated by all attribute operations.
func (s *AttrSet) Cost() CostModel { return s.cost }

// String renders the attributes sorted by name, e.g.
// "sleep-time=1 spin-time=10".
func (s *AttrSet) String() string {
	names := make([]string, 0, len(s.attrs))
	for n := range s.attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, s.attrs[n].value)
	}
	return strings.Join(parts, " ")
}
