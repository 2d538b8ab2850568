package objectbase

// StateArena bulk-allocates State objects and their flat entry backing.
// The evaluation engine's target-state computation clones tens of
// thousands of small states on a large apply; individually each clone is
// two heap objects, and the garbage collector's mark cost on those
// dominates large fixpoints. An arena carves both the structs and the entry
// slices out of chunked slabs, turning ~2n allocations into ~2n/chunk and
// laying the states out contiguously. Slabs start small and double up to
// the chunk bounds, so an apply that clones one state pays for a handful,
// not for a thousand.
//
// Arena-backed states are ordinary *State values: every entry slice is
// capacity-clamped to its carve, so growing a state past its cloned size
// reallocates onto the regular heap and can never overrun a neighbouring
// carve. Spilled (map-form) states fall back to regular map allocation.
//
// An arena is single-goroutine; concurrent cloners use one arena each. The
// slabs stay reachable for as long as any state carved from them lives —
// appropriate for the versions of one fixpoint, which die together; states
// that outlive the run (the final copy) are cloned onto the heap instead,
// see State.CloneFinal.
type StateArena struct {
	states  []State
	entries []appEntry
	// nextStates and nextEntries are the sizes of the next slabs.
	nextStates, nextEntries int
}

const (
	arenaStateChunk = 1024
	arenaEntryChunk = 8192
	arenaFirstChunk = 4 // states in the first slab; entries get 8× that
)

// nextSlab returns the size of the next slab (at least need) and doubles the
// one after it, up to limit.
func nextSlab(next *int, first, limit, need int) int {
	n := max(*next, first, need)
	*next = min(2*n, limit)
	return n
}

// newState carves one zeroed State.
func (a *StateArena) newState() *State {
	if len(a.states) == 0 {
		a.states = make([]State, nextSlab(&a.nextStates, arenaFirstChunk, arenaStateChunk, 1))
	}
	s := &a.states[0]
	a.states = a.states[1:]
	return s
}

// carve returns an empty entry slice with capacity exactly n, backed by the
// slab. Requests larger than a chunk go straight to the heap.
func (a *StateArena) carve(n int) []appEntry {
	if n > arenaEntryChunk {
		return make([]appEntry, 0, n)
	}
	if len(a.entries) < n {
		a.entries = make([]appEntry, nextSlab(&a.nextEntries, 8*arenaFirstChunk, arenaEntryChunk, n))
	}
	out := a.entries[0:0:n]
	a.entries = a.entries[n:]
	return out
}

// New returns an empty arena-backed state. Its first few Adds allocate
// entry storage on the regular heap, like a zero State.
func (a *StateArena) New() *State { return a.newState() }

// Clone is State.Clone with arena-backed storage for the flat form and room
// for extra more applications before the first reallocation — the engine
// copies a version's state once, at the moment an update first changes it,
// and knows how many updates are waiting.
func (a *StateArena) Clone(s *State, extra int) *State {
	out := a.newState()
	if !s.flat() {
		*out = *s.Clone()
		return out
	}
	out.size = s.size
	if n := len(s.entries) + extra; n > 0 {
		out.entries = append(a.carve(min(n, stateSpillThreshold)), s.entries...)
	}
	return out
}
