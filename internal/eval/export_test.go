package eval

import "verlog/internal/objectbase"

// ParkedChanges reports whether the slot holds working memory and returns
// its change list up to its capacity: nil when the slot is empty or the list
// was dropped.
func ParkedChanges() (changes []objectbase.Change, held bool) {
	sc := parkedScratch()
	if sc == nil {
		return nil, false
	}
	return sc.changes[:cap(sc.changes)], true
}
