// Package sync is a fixture stub: the virtualtime analyzer identifies
// sync.{Mutex,RWMutex,WaitGroup,Cond} method calls by receiver type, so
// the stub only needs the types and method names.
package sync

type Mutex struct{}

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

type RWMutex struct{}

func (m *RWMutex) Lock()    {}
func (m *RWMutex) Unlock()  {}
func (m *RWMutex) RLock()   {}
func (m *RWMutex) RUnlock() {}

type WaitGroup struct{}

func (w *WaitGroup) Add(n int) {}
func (w *WaitGroup) Done()     {}
func (w *WaitGroup) Wait()     {}

type Locker interface {
	Lock()
	Unlock()
}

type Cond struct{ L Locker }

func (c *Cond) Wait()      {}
func (c *Cond) Signal()    {}
func (c *Cond) Broadcast() {}
