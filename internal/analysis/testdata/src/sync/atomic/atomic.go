// Package atomic is a fixture stub: the crossshard analyzer treats the
// writing methods of sync/atomic types as writes to their receiver, so
// the stub only needs the types and method names.
package atomic

type Uint64 struct{ v uint64 }

func (x *Uint64) Load() uint64                        { return x.v }
func (x *Uint64) Store(v uint64)                      { x.v = v }
func (x *Uint64) CompareAndSwap(old, new uint64) bool { return false }

type Int64 struct{ v int64 }

func (x *Int64) Load() int64       { return x.v }
func (x *Int64) Store(v int64)     { x.v = v }
func (x *Int64) Add(d int64) int64 { return x.v }
