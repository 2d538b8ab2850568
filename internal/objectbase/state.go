package objectbase

import (
	"iter"
	"slices"

	"verlog/internal/term"
)

// stateIndexThreshold is the number of applications beyond which a State
// keeps a position index beside its entries. Profiles of the apply hot path
// (E1/E2) show the overwhelming majority of states hold a handful of
// applications — for those, a flat slice clones with a single allocation and
// scans faster than any map probe — while large accumulator states (e.g.
// recursive closures) need O(1) membership tests to stay linear.
const stateIndexThreshold = 24

// appEntry is one method application, 24 bytes: its key interned, so that
// a copied state holds one word per key. Interning hashes the key, so only
// Add (the loader's way in) and a lookup in an indexed state pay for it; a
// read of a scanned state compares keys by value, and entries compare by
// handle.
type appEntry struct {
	k term.Key
	r term.OID
}

// existsKey is the interned key of exists, which every final state holds.
var existsKey = term.MethodKey{Method: term.ExistsMethod}.Intern()

// key returns the entry's method key.
func (e appEntry) key() term.MethodKey { return e.k.MethodKey() }

// fact returns the entry as a fact of version v.
func (e appEntry) fact(v term.GVID) term.Fact {
	k := e.k.MethodKey()
	return term.Fact{V: v, Method: k.Method, Args: k.Args, Result: e.r}
}

// State is the state of one version: all its method applications.
//
// The entries are the only truth. A state holding more than
// stateIndexThreshold of them also carries pos, each entry's position, so
// that Has, Add and Remove stay O(1). Only the mutators (Add, Remove and the
// Clone family) build and keep pos, never a read: a frozen state is read by
// many goroutines at once.
type State struct {
	entries []appEntry
	pos     map[appEntry]int32 // nil while len(entries) <= stateIndexThreshold
}

// emptyState stands in for a nil state, which applies nothing.
var emptyState State

// NewState returns an empty state.
func NewState() *State { return &State{} }

// stateOfEntries returns the state holding entries, indexed if it is large.
func stateOfEntries(entries []appEntry) *State {
	s := &State{entries: entries}
	s.reindex()
	return s
}

// reindex builds pos if the state has grown past stateIndexThreshold.
func (s *State) reindex() {
	if len(s.entries) > stateIndexThreshold {
		s.pos = make(map[appEntry]int32, len(s.entries))
		for i, e := range s.entries {
			s.pos[e] = int32(i)
		}
	}
}

// find returns the position of e among the entries, or -1.
func (s *State) find(e appEntry) int {
	if s.pos != nil {
		if i, ok := s.pos[e]; ok {
			return int(i)
		}
		return -1
	}
	return slices.Index(s.entries, e)
}

// findKey is find for a key not interned: it interns only to probe pos.
func (s *State) findKey(key term.MethodKey, r term.OID) int {
	if s.pos != nil {
		return s.find(appEntry{key.Intern(), r})
	}
	for i, e := range s.entries {
		if e.r == r && e.key() == key {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State { return s.CloneWithRoom(0) }

// CloneWithRoom is Clone with room for extra more applications before the
// first reallocation — the engine copies a version's state once, at the
// moment an update first changes it, and knows how many updates are waiting.
func (s *State) CloneWithRoom(extra int) *State {
	return stateOfEntries(append(make([]appEntry, 0, len(s.entries)+extra), s.entries...))
}

// CloneWithoutMethod returns a deep copy of the state with every
// application of the named method dropped: the bulk form of
// clone-then-delete the copy phase uses, one allocation for the entries.
func (s *State) CloneWithoutMethod(method string) *State {
	return stateOfEntries(s.appendWithout(make([]appEntry, 0, len(s.entries)), method))
}

// appendWithout appends the entries not of the named method to out.
func (s *State) appendWithout(out []appEntry, method string) []appEntry {
	for _, e := range s.entries {
		if e.key().Method != method {
			out = append(out, e)
		}
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
	entries := s.appendWithout(make([]appEntry, 0, len(s.entries)+1), term.ExistsMethod)
	return stateOfEntries(append(entries, appEntry{existsKey, o}))
}

// FinalEquals reports whether s.CloneFinal(o) would equal t, without
// building the copy: the applications of s besides exists are exactly those
// of t besides its single exists -> o. With s == t it asks whether s is in
// final form already (see settledFor), at the cost of one walk.
func (s *State) FinalEquals(o term.OID, t *State) bool {
	n, same := 1, true // the canonical exists application counts once
	for _, e := range s.entries {
		if e.key().Method == term.ExistsMethod {
			continue
		}
		n++
		if same && s != t && t.find(e) < 0 {
			same = false
		}
	}
	return same && n == len(t.entries) && t.find(appEntry{existsKey, o}) >= 0
}

// settledFor reports whether CloneFinal(o) would reproduce the state and
// the final copy would keep it: at least one application besides exists,
// and exists -> o as the only exists application.
func (s *State) settledFor(o term.OID) bool {
	return !s.OnlyExists() && s.FinalEquals(o, s)
}

// Size returns the number of method applications in the state.
func (s *State) Size() int { return len(s.entries) }

// Visits returns the entries a membership test of the state reads: none
// when it keeps its position index, every one when it is scanned.
func (s *State) Visits() int {
	if s.pos != nil {
		return 0
	}
	return len(s.entries)
}

// Empty reports whether the state holds no method applications; nil holds none.
func (s *State) Empty() bool { return s == nil || len(s.entries) == 0 }

// OnlyExists reports whether the state holds nothing but exists
// applications — the "fully deleted" shape of Section 5.
func (s *State) OnlyExists() bool {
	for _, e := range s.entries {
		if e.key().Method != term.ExistsMethod {
			return false
		}
	}
	return true
}

// Has reports whether the state contains the application key -> result.
func (s *State) Has(key term.MethodKey, result term.OID) bool {
	return s.findKey(key, result) >= 0
}

// HasKey is Has for a key interned already: it hashes nothing.
func (s *State) HasKey(key term.Key, result term.OID) bool {
	return s.find(appEntry{key, result}) >= 0
}

// HasMethod reports whether any application of the given key is present.
func (s *State) HasMethod(key term.MethodKey) bool {
	for _, e := range s.entries {
		if e.key() == key {
			return true
		}
	}
	return false
}

// HasAnyOfMethod reports whether the state has any application of the named
// method, under any argument tuple.
func (s *State) HasAnyOfMethod(method string) bool {
	for _, e := range s.entries {
		if e.key().Method == method {
			return true
		}
	}
	return false
}

// Add inserts an application, reporting whether it was new.
func (s *State) Add(key term.MethodKey, result term.OID) bool {
	return s.add(appEntry{key.Intern(), result})
}

func (s *State) add(e appEntry) bool {
	if s.find(e) >= 0 {
		return false
	}
	if s.pos != nil && len(s.entries) == cap(s.entries) {
		// Double, as the index does: append's own growth past 256 entries
		// (1.25×) would allocate five times the final slice.
		s.entries = append(make([]appEntry, 0, 2*len(s.entries)), s.entries...)
	}
	s.entries = append(s.entries, e)
	if s.pos != nil {
		s.pos[e] = int32(len(s.entries) - 1)
	} else {
		s.reindex()
	}
	return true
}

// Remove deletes an application, reporting whether it was present. The
// last entry takes the place of the removed one.
func (s *State) Remove(key term.MethodKey, result term.OID) bool {
	return s.removeAt(s.findKey(key, result))
}

// removeAt deletes the entry at position i, if i is one.
func (s *State) removeAt(i int) bool {
	if i < 0 {
		return false
	}
	e := s.entries[i]
	last := len(s.entries) - 1
	moved := s.entries[last]
	s.entries[i] = moved
	s.entries = s.entries[:last]
	if last <= stateIndexThreshold {
		s.pos = nil
	} else {
		delete(s.pos, e)
		if i < last {
			s.pos[moved] = int32(i)
		}
	}
	return true
}

// All yields every application in the state, in unspecified order.
func (s *State) All() iter.Seq2[term.MethodKey, term.OID] {
	return func(yield func(term.MethodKey, term.OID) bool) { s.all(yield) }
}

func (s *State) all(yield func(term.MethodKey, term.OID) bool) {
	for _, e := range s.entries {
		if !yield(e.key(), e.r) {
			return
		}
	}
}

// OfMethod yields every application of the named method, across all
// argument tuples.
func (s *State) OfMethod(method string) iter.Seq2[term.MethodKey, term.OID] {
	return func(yield func(term.MethodKey, term.OID) bool) { s.ofMethod(method, yield) }
}

func (s *State) ofMethod(method string, yield func(term.MethodKey, term.OID) bool) {
	for _, e := range s.entries {
		if k := e.key(); k.Method == method && !yield(k, e.r) {
			return
		}
	}
}

// Results yields every result of the exact method key.
func (s *State) Results(key term.MethodKey) iter.Seq[term.OID] {
	return func(yield func(term.OID) bool) { s.results(key, yield) }
}

func (s *State) results(key term.MethodKey, yield func(term.OID) bool) {
	for _, e := range s.entries {
		if e.key() == key && !yield(e.r) {
			return
		}
	}
}

// forEachMethod calls fn once per distinct method name in the state, in one
// walk that checks each name against the few seen before it.
func (s *State) forEachMethod(fn func(method string)) {
	var buf [8]string
	seen := buf[:0]
	for _, e := range s.entries {
		if m := e.key().Method; !slices.Contains(seen, m) {
			seen = append(seen, m)
			fn(m)
		}
	}
}

// methodsMoved calls moved(m, false) for every method name s applies and t
// does not, and moved(m, true) for every one t applies and s does not, once
// per name. Either state may be nil, which applies none. The states are
// compared position by position: a changed state is nearly always an edited
// copy of the old one, most entries still where they were, and only the
// names at the positions that differ need looking for — each once, so the
// walk costs O(size × distinct names) however many positions differ.
func methodsMoved(s, t *State, moved func(method string, entered bool)) {
	if s == nil {
		s = &emptyState
	}
	if t == nil {
		t = &emptyState
	}
	var buf [8]string
	checked := buf[:0]
	check := func(m string) {
		if slices.Contains(checked, m) {
			return
		}
		checked = append(checked, m)
		if inS, inT := s.HasAnyOfMethod(m), t.HasAnyOfMethod(m); inS != inT {
			moved(m, inT)
		}
	}
	for i := range max(len(s.entries), len(t.entries)) {
		inS, inT := i < len(s.entries), i < len(t.entries)
		if inS && inT && s.entries[i].key().Method == t.entries[i].key().Method {
			continue
		}
		if inS {
			check(s.entries[i].key().Method)
		}
		if inT {
			check(t.entries[i].key().Method)
		}
	}
}

// sameOfMethod reports whether s and t hold the same applications of the
// named method. Either may be nil, which holds none.
func (s *State) sameOfMethod(t *State, method string) bool {
	if s == t {
		return true
	}
	if s == nil {
		s = &emptyState
	}
	if t == nil {
		t = &emptyState
	}
	// Every application of s is one of t's, and t has no more of them.
	more := 0
	for _, e := range t.entries {
		if e.key().Method == method {
			more++
		}
	}
	for _, e := range s.entries {
		if e.key().Method == method {
			if more--; t.find(e) < 0 {
				return false
			}
		}
	}
	return more == 0
}

// Equal reports whether two states hold the same applications.
func (s *State) Equal(t *State) bool {
	if len(s.entries) != len(t.entries) {
		return false
	}
	for _, e := range s.entries {
		if t.find(e) < 0 {
			return false
		}
	}
	return true
}
