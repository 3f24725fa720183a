package core

import "fmt"

// Method is one reconfigurable method of the object's interface Γ: a fixed
// name with a registry of implementation variants, one of which is
// installed. Subcomponents models the paper's lock scheduler, which is
// split into registration, acquisition, and release sub-modules: installing
// a variant writes one word per subcomponent, plus a flag set and a flag
// reset to drain pre-registered threads through the old implementation
// (§5.2: "alteration of the scheduler requires three memory writes for
// three submodules, one memory write to set a flag ... and another memory
// write to reset the flag").
type Method struct {
	variants      map[string]bool
	installed     string
	subcomponents int
}

// MethodTable is the configurable-method part Γ of an object configuration
// C = Γ × Φ.
type MethodTable struct {
	methods map[string]*Method
}

// NewMethodTable returns an empty method table.
func NewMethodTable() *MethodTable {
	return &MethodTable{methods: make(map[string]*Method)}
}

// Define registers a reconfigurable method with its variants; the first
// variant is installed. subcomponents must be ≥ 1 (a monolithic method has
// one).
func (t *MethodTable) Define(name string, subcomponents int, variants ...string) {
	if _, dup := t.methods[name]; dup {
		panic(fmt.Sprintf("core: method %q defined twice", name))
	}
	if len(variants) == 0 {
		panic(fmt.Sprintf("core: method %q needs at least one variant", name))
	}
	if subcomponents < 1 {
		subcomponents = 1
	}
	m := &Method{
		variants:      make(map[string]bool, len(variants)),
		subcomponents: subcomponents,
	}
	for _, v := range variants {
		if m.variants[v] {
			panic(fmt.Sprintf("core: method %q variant %q defined twice", name, v))
		}
		m.variants[v] = true
	}
	m.installed = variants[0]
	t.methods[name] = m
}

// Installed returns the installed variant of the named method.
func (t *MethodTable) Installed(name string) (string, error) {
	m, ok := t.methods[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownMethod, name)
	}
	return m.installed, nil
}

// InstalledAll returns the installed variant of every method.
func (t *MethodTable) InstalledAll() map[string]string {
	out := make(map[string]string, len(t.methods))
	for n, m := range t.methods {
		out[n] = m.installed
	}
	return out
}

// Install switches the method to the given variant and returns the cost:
// one write per subcomponent plus two flag writes. Installing the variant
// that is already installed still pays the cost (the mechanism cannot know
// without reading, and the paper's mechanism writes unconditionally).
func (t *MethodTable) Install(name, variant string) (CostModel, error) {
	m, ok := t.methods[name]
	if !ok {
		return CostModel{}, fmt.Errorf("%w: %q", ErrUnknownMethod, name)
	}
	if !m.variants[variant] {
		return CostModel{}, fmt.Errorf("%w: %q.%q", ErrUnknownVariant, name, variant)
	}
	m.installed = variant
	return CostModel{Writes: m.subcomponents + 2}, nil
}
