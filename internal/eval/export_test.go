package eval

import "verlog/internal/objectbase"

// ParkedChanges returns the change list of the working memory in the slot,
// up to its capacity: nil when the slot is empty or the list was dropped.
func ParkedChanges() []objectbase.Change {
	sc := parkedScratch()
	if sc == nil {
		return nil
	}
	return sc.changes[:cap(sc.changes)]
}
