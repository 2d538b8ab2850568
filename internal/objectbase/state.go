package objectbase

import "verlog/internal/term"

// stateSpillThreshold is the number of applications beyond which a State
// switches from the flat entry slice to the map-of-maps representation.
// Profiles of the apply hot path (E1/E2) show the overwhelming majority of
// states hold a handful of applications — for those, a flat slice clones
// with a single allocation and scans faster than any map walk, while large
// accumulator states (e.g. recursive closures) spill to maps and keep
// their O(1) membership tests.
const stateSpillThreshold = 24

// appEntry is one method application in the flat representation.
type appEntry struct {
	key term.MethodKey
	r   term.OID
}

// State is the state of one version: all its method applications.
//
// Small states (the common case) are a flat slice of entries; once a state
// grows past stateSpillThreshold it spills to the map-of-maps form and
// stays there. The representation is invisible to callers.
type State struct {
	entries []appEntry                               // flat form (apps == nil)
	apps    map[term.MethodKey]map[term.OID]struct{} // spilled form
	size    int
}

// NewState returns an empty state.
func NewState() *State { return &State{} }

// flat reports whether the state is in the flat-entry representation.
func (s *State) flat() bool { return s.apps == nil }

// spill converts the flat representation to the map form.
func (s *State) spill() {
	s.apps = make(map[term.MethodKey]map[term.OID]struct{}, len(s.entries))
	for _, e := range s.entries {
		rs, ok := s.apps[e.key]
		if !ok {
			rs = make(map[term.OID]struct{}, 1)
			s.apps[e.key] = rs
		}
		rs[e.r] = struct{}{}
	}
	s.entries = nil
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State { return s.CloneWithRoom(0) }

// CloneWithRoom is Clone with room for extra more applications before the
// first reallocation of the flat form — the engine copies a version's state
// once, at the moment an update first changes it, and knows how many updates
// are waiting.
func (s *State) CloneWithRoom(extra int) *State {
	if s.apps == nil {
		out := &State{size: s.size}
		if n := len(s.entries) + extra; n > 0 {
			// Room past the spill threshold would never be used.
			n = max(len(s.entries), min(n, stateSpillThreshold))
			out.entries = append(make([]appEntry, 0, n), s.entries...)
		}
		return out
	}
	out := &State{apps: make(map[term.MethodKey]map[term.OID]struct{}, len(s.apps)), size: s.size}
	for k, rs := range s.apps {
		cp := make(map[term.OID]struct{}, len(rs))
		for r := range rs {
			cp[r] = struct{}{}
		}
		out.apps[k] = cp
	}
	return out
}

// CloneWithoutMethod returns a deep copy of the state with every
// application of the named method dropped. It is the bulk form of
// clone-then-delete the copy phase uses: flat states copy with one
// allocation and spilled states avoid per-fact membership re-hashing.
func (s *State) CloneWithoutMethod(method string) *State {
	if s.apps == nil {
		out := &State{}
		if len(s.entries) > 0 {
			out.entries = make([]appEntry, 0, len(s.entries))
			for _, e := range s.entries {
				if e.key.Method != method {
					out.entries = append(out.entries, e)
				}
			}
			out.size = len(out.entries)
		}
		return out
	}
	out := &State{apps: make(map[term.MethodKey]map[term.OID]struct{}, len(s.apps))}
	for k, rs := range s.apps {
		if k.Method == method || len(rs) == 0 {
			continue
		}
		cp := make(map[term.OID]struct{}, len(rs))
		for r := range rs {
			cp[r] = struct{}{}
		}
		out.apps[k] = cp
		out.size += len(rs)
	}
	return out
}

// CloneFinal returns a copy of the state with every exists application
// dropped and the single canonical one (exists -> o) added — the state
// shape the updated base of Section 5 stores per object. The copy phase
// needs it only for a final version that is not in that shape already (it
// carries a foreign exists); one that is becomes the object's state as it
// stands, see FinalEquals.
func (s *State) CloneFinal(o term.OID) *State {
	existsKey := term.MethodKey{Method: term.ExistsMethod}
	if s.apps != nil {
		out := s.CloneWithoutMethod(term.ExistsMethod)
		out.Add(existsKey, o)
		return out
	}
	entries := make([]appEntry, 0, len(s.entries)+1)
	for _, e := range s.entries {
		if e.key.Method != term.ExistsMethod {
			entries = append(entries, e)
		}
	}
	entries = append(entries, appEntry{key: existsKey, r: o})
	return &State{entries: entries, size: len(entries)}
}

// FinalEquals reports whether s.CloneFinal(o) would equal t, without
// building the copy: the applications of s besides exists are exactly those
// of t besides its single exists -> o. With s == t it asks whether s is in
// final form already (see settledFor), at the cost of one walk.
func (s *State) FinalEquals(o term.OID, t *State) bool {
	n, same := 1, true // the canonical exists application counts once
	s.ForEach(func(k term.MethodKey, r term.OID) {
		if k.Method == term.ExistsMethod {
			return
		}
		n++
		if same && s != t && !t.Has(k, r) {
			same = false
		}
	})
	return same && n == t.size && t.Has(term.MethodKey{Method: term.ExistsMethod}, o)
}

// settledFor reports whether CloneFinal(o) would reproduce the state and
// the final copy would keep it: at least one application besides exists,
// and exists -> o as the only exists application.
func (s *State) settledFor(o term.OID) bool {
	return !s.OnlyExists() && s.FinalEquals(o, s)
}

// Size returns the number of method applications in the state.
func (s *State) Size() int { return s.size }

// Empty reports whether the state holds no method applications at all.
func (s *State) Empty() bool { return s.size == 0 }

// OnlyExists reports whether the state holds nothing but exists
// applications — the "fully deleted" shape of Section 5.
func (s *State) OnlyExists() bool {
	if s.apps == nil {
		for _, e := range s.entries {
			if e.key.Method != term.ExistsMethod {
				return false
			}
		}
		return true
	}
	for k, rs := range s.apps {
		if k.Method != term.ExistsMethod && len(rs) > 0 {
			return false
		}
	}
	return true
}

// Has reports whether the state contains the application key -> result.
func (s *State) Has(key term.MethodKey, result term.OID) bool {
	if s.apps == nil {
		for _, e := range s.entries {
			if e.key == key && e.r == result {
				return true
			}
		}
		return false
	}
	_, ok := s.apps[key][result]
	return ok
}

// HasMethod reports whether any application of the given key is present.
func (s *State) HasMethod(key term.MethodKey) bool {
	if s.apps == nil {
		for _, e := range s.entries {
			if e.key == key {
				return true
			}
		}
		return false
	}
	return len(s.apps[key]) > 0
}

// HasAnyOfMethod reports whether the state has any application of the named
// method, under any argument tuple.
func (s *State) HasAnyOfMethod(method string) bool {
	if s.apps == nil {
		for _, e := range s.entries {
			if e.key.Method == method {
				return true
			}
		}
		return false
	}
	for k, rs := range s.apps {
		if k.Method == method && len(rs) > 0 {
			return true
		}
	}
	return false
}

// Add inserts an application, reporting whether it was new.
func (s *State) Add(key term.MethodKey, result term.OID) bool {
	if s.apps == nil {
		for _, e := range s.entries {
			if e.key == key && e.r == result {
				return false
			}
		}
		if len(s.entries) >= stateSpillThreshold {
			s.spill()
			return s.Add(key, result)
		}
		s.entries = append(s.entries, appEntry{key: key, r: result})
		s.size++
		return true
	}
	rs, ok := s.apps[key]
	if !ok {
		rs = make(map[term.OID]struct{}, 1)
		s.apps[key] = rs
	}
	if _, dup := rs[result]; dup {
		return false
	}
	rs[result] = struct{}{}
	s.size++
	return true
}

// Remove deletes an application, reporting whether it was present.
func (s *State) Remove(key term.MethodKey, result term.OID) bool {
	if s.apps == nil {
		for i, e := range s.entries {
			if e.key == key && e.r == result {
				last := len(s.entries) - 1
				s.entries[i] = s.entries[last]
				s.entries = s.entries[:last]
				s.size--
				return true
			}
		}
		return false
	}
	rs, ok := s.apps[key]
	if !ok {
		return false
	}
	if _, present := rs[result]; !present {
		return false
	}
	delete(rs, result)
	if len(rs) == 0 {
		delete(s.apps, key)
	}
	s.size--
	return true
}

// ForEach calls fn for every application in the state. Iteration order is
// unspecified.
func (s *State) ForEach(fn func(key term.MethodKey, result term.OID)) {
	if s.apps == nil {
		for _, e := range s.entries {
			fn(e.key, e.r)
		}
		return
	}
	for k, rs := range s.apps {
		for r := range rs {
			fn(k, r)
		}
	}
}

// ForEachOfMethod calls fn for every application of the named method,
// across all argument tuples.
func (s *State) ForEachOfMethod(method string, fn func(key term.MethodKey, result term.OID)) {
	if s.apps == nil {
		for _, e := range s.entries {
			if e.key.Method == method {
				fn(e.key, e.r)
			}
		}
		return
	}
	for k, rs := range s.apps {
		if k.Method != method {
			continue
		}
		for r := range rs {
			fn(k, r)
		}
	}
}

// ForEachResult calls fn for every result of the exact method key.
func (s *State) ForEachResult(key term.MethodKey, fn func(result term.OID)) {
	if s.apps == nil {
		for _, e := range s.entries {
			if e.key == key {
				fn(e.r)
			}
		}
		return
	}
	for r := range s.apps[key] {
		fn(r)
	}
}

// forEachMethodKey calls fn once per distinct method name in the state.
// Duplicated names across argument tuples are suppressed.
func (s *State) forEachMethod(fn func(method string)) {
	if s.apps == nil {
		for i, e := range s.entries {
			dup := false
			for _, p := range s.entries[:i] {
				if p.key.Method == e.key.Method {
					dup = true
					break
				}
			}
			if !dup {
				fn(e.key.Method)
			}
		}
		return
	}
	seen := make(map[string]struct{}, len(s.apps))
	for k := range s.apps {
		if _, ok := seen[k.Method]; ok {
			continue
		}
		seen[k.Method] = struct{}{}
		fn(k.Method)
	}
}

// methodsMoved calls moved(m, false) for every method name s applies and t
// does not, and moved(m, true) for every one t applies and s does not —
// possibly more than once per name. Either state may be nil, which applies
// none. Two flat states are compared position by position first: a changed
// state is nearly always an edited copy of the old one, most entries still
// where they were, and only the names at the positions that differ need
// looking for.
func methodsMoved(s, t *State, moved func(method string, entered bool)) {
	if s != nil && t != nil && s.flat() && t.flat() {
		for i := 0; i < max(len(s.entries), len(t.entries)); i++ {
			inS, inT := i < len(s.entries), i < len(t.entries)
			if inS && inT && s.entries[i].key.Method == t.entries[i].key.Method {
				continue
			}
			if inS && !t.HasAnyOfMethod(s.entries[i].key.Method) {
				moved(s.entries[i].key.Method, false)
			}
			if inT && !s.HasAnyOfMethod(t.entries[i].key.Method) {
				moved(t.entries[i].key.Method, true)
			}
		}
		return
	}
	if s != nil {
		s.forEachMethod(func(m string) {
			if t == nil || !t.HasAnyOfMethod(m) {
				moved(m, false)
			}
		})
	}
	if t != nil {
		t.forEachMethod(func(m string) {
			if s == nil || !s.HasAnyOfMethod(m) {
				moved(m, true)
			}
		})
	}
}

// sameOfMethod reports whether s and t hold the same applications of the
// named method. Either may be nil, which holds none.
func (s *State) sameOfMethod(t *State, method string) bool {
	if s == t {
		return true
	}
	// Every application of s is one of t's, and t has no more of them.
	more, same := 0, true
	if t != nil {
		t.ForEachOfMethod(method, func(term.MethodKey, term.OID) { more++ })
	}
	if s != nil {
		s.ForEachOfMethod(method, func(k term.MethodKey, r term.OID) {
			more--
			same = same && t != nil && t.Has(k, r)
		})
	}
	return same && more == 0
}

// Equal reports whether two states hold the same applications.
func (s *State) Equal(t *State) bool {
	if s.size != t.size {
		return false
	}
	if s.apps == nil {
		for _, e := range s.entries {
			if !t.Has(e.key, e.r) {
				return false
			}
		}
		return true
	}
	for k, rs := range s.apps {
		for r := range rs {
			if !t.Has(k, r) {
				return false
			}
		}
	}
	return true
}
