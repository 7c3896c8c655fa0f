package sax

import "sync"

// Symbol-ID sentinels carried in Event.NameID and Attr.NameID.
const (
	// SymNone is the zero value: the producer did not intern this name
	// (hand-built events, adapters without a table). A consumer that
	// dispatches on IDs refuses it: the name could match nothing.
	SymNone int32 = 0
	// SymUnknown marks a name the producer looked up in its Symbols table
	// and did not find. Because every name a compiled query can match is
	// interned at compile time, consumers may skip named dispatch entirely
	// for SymUnknown events (wildcards still apply).
	SymUnknown int32 = -1
)

// Symbols is a shared name-interning table: it assigns each distinct
// element/attribute name a small dense integer ID (starting at 1; 0 and -1
// are the sentinels above). Queries intern their names at compile time, and
// scanners resolve document names against the same table, so the per-event
// "which machine nodes care about this tag" question becomes a slice index
// instead of a map lookup.
//
// Interning is serialized by a mutex; lookups take a read lock. Scanners
// keep a per-stream cache and consult the table once per distinct name per
// document, so the lock is far off the hot path.
type Symbols struct {
	mu    sync.RWMutex
	ids   map[string]int32
	names []string // names[id-1] = name
}

// NewSymbols returns an empty table.
func NewSymbols() *Symbols {
	return &Symbols{ids: make(map[string]int32)}
}

// Intern returns the ID for name, assigning the next free ID if the name is
// new. IDs are dense and start at 1.
func (s *Symbols) Intern(name string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[name]; ok {
		return id
	}
	s.names = append(s.names, name)
	id := int32(len(s.names))
	s.ids[name] = id
	return id
}

// ID returns the ID of name, or SymUnknown if it was never interned.
func (s *Symbols) ID(name string) int32 {
	s.mu.RLock()
	id, ok := s.ids[name]
	s.mu.RUnlock()
	if !ok {
		return SymUnknown
	}
	return id
}

// Name returns the name bound to id, or "" for sentinels and unknown IDs.
func (s *Symbols) Name(id int32) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id < 1 || int(id) > len(s.names) {
		return ""
	}
	return s.names[id-1]
}

// Len returns the number of interned names. Valid IDs are 1..Len().
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}
