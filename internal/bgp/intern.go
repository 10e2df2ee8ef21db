package bgp

import "sync"

// Intern is an engine-level table of canonical Communities sets, shared
// by the convergence engine's workers, the study-cache decoder, and the
// cache encoder. Interning collapses the many structurally-identical
// attribute values a converged Internet produces (every customer of AS x
// carries the same relationship tag set) to one allocation, and — because
// the same table is threaded from decode through simulation — a cache hit
// materializes state the engine's equality fast paths (pointer/len
// comparisons) already recognize.
//
// Ownership rule: a value handed to an Intern (or returned by one) is
// immutable from that point on. Callers must never append to or modify
// an interned Communities in place; derive a new value (e.g.
// Communities.Add) and intern that instead.
//
// All methods are safe for concurrent use and safe on a nil receiver
// (nil = no interning: lookups miss, stores return the input).
type Intern struct {
	mu    sync.RWMutex
	comms map[string]Communities
}

// NewIntern returns an empty intern table.
func NewIntern() *Intern {
	return &Intern{comms: make(map[string]Communities)}
}

// AppendCommunitiesKey appends the canonical byte key of cs to dst and
// returns the extended slice. The key is 4 little-endian bytes per
// member in set (sorted) order — the shared key derivation the worker
// L1 caches, the Intern table, and the study-format encoder all use, so
// a set keyed at one layer hits at every other.
func AppendCommunitiesKey(dst []byte, cs Communities) []byte {
	for _, c := range cs {
		dst = append(dst, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return dst
}

// AppendPathKey appends the canonical byte key of p to dst (4
// little-endian bytes per hop) and returns the extended slice.
func AppendPathKey(dst []byte, p Path) []byte {
	for _, a := range p {
		dst = append(dst, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	return dst
}

// LookupCommunities returns the canonical set for key, if present.
func (in *Intern) LookupCommunities(key []byte) (Communities, bool) {
	if in == nil {
		return nil, false
	}
	in.mu.RLock()
	cs, ok := in.comms[string(key)]
	in.mu.RUnlock()
	return cs, ok
}

// InternCommunities stores cs as the canonical set for key unless one
// exists, and returns the canonical value (first writer wins, so every
// caller converges on one allocation). cs must already be normalized
// (sorted, deduplicated) and must match key.
func (in *Intern) InternCommunities(key []byte, cs Communities) Communities {
	if in == nil {
		return cs
	}
	in.mu.Lock()
	if prev, ok := in.comms[string(key)]; ok {
		in.mu.Unlock()
		return prev
	}
	in.comms[string(key)] = cs
	in.mu.Unlock()
	return cs
}
