package objectbase

import (
	"reflect"
	"slices"

	"verlog/internal/term"
)

// BuiltPartition exposes the identity of the (path, method) partition to the
// external tests, nil while no reader has built it: two probes that saw
// different identities saw two builds.
func (ix *LiteralIndex) BuiltPartition(path term.Path, method string) any {
	if p := ix.built(pathMethod{Path: path, Method: method}); p != nil {
		return p
	}
	return nil
}

// Partitions lists the partitions built so far — of this index and, when it
// is layered, of the root's — as sorted "method" (path 0) or "path.method"
// names: what the readers of the base have asked for.
func (ix *LiteralIndex) Partitions() []string {
	var names []string
	for l := ix; l != nil; l = l.parent {
		if parts := l.parts.Load(); parts != nil {
			for pm := range *parts {
				name := pm.Method
				if pm.Path != "" {
					name = string(pm.Path) + "." + name
				}
				if !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// VIDIndexDeferred reports whether the base's own VID index is still to be
// built by its first scanning reader.
func (b *Base) VIDIndexDeferred() bool { return b.vidStale.Load() }

// VIDSetsSharedWith lists the (path, method) sets of the base's VID index,
// as "path.method" names, split by whether the set is the very map other
// holds for the pair (shared) or one of the base's own.
func (b *Base) VIDSetsSharedWith(other *Base) (shared, own []string) {
	for pm, vs := range b.byPathMethod {
		name := string(pm.Path) + "." + pm.Method
		if reflect.ValueOf(vs).Pointer() == reflect.ValueOf(other.byPathMethod[pm]).Pointer() {
			shared = append(shared, name)
		} else {
			own = append(own, name)
		}
	}
	slices.Sort(shared)
	slices.Sort(own)
	return shared, own
}
