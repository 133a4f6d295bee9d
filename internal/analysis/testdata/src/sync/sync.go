// Package sync is a fixture stand-in for the standard library's sync:
// guardedby matches lock operations by package name and type name, so this
// minimal replica exercises it without export data.
package sync

// Mutex mirrors sync.Mutex.
type Mutex struct{ state int }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

// RWMutex mirrors sync.RWMutex.
type RWMutex struct{ state int }

func (m *RWMutex) Lock()    {}
func (m *RWMutex) Unlock()  {}
func (m *RWMutex) RLock()   {}
func (m *RWMutex) RUnlock() {}
