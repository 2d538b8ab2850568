package term

import (
	"fmt"
	"strings"
)

// UpdateKind is one of the three unary function symbols of the language
// (the set F = {ins, del, mod} of the paper).
type UpdateKind byte

// The three update types.
const (
	Ins UpdateKind = 'i'
	Del UpdateKind = 'd'
	Mod UpdateKind = 'm'
)

// Valid reports whether k is one of Ins, Del, Mod.
func (k UpdateKind) Valid() bool { return k == Ins || k == Del || k == Mod }

func (k UpdateKind) String() string {
	switch k {
	case Ins:
		return "ins"
	case Del:
		return "del"
	case Mod:
		return "mod"
	default:
		return fmt.Sprintf("UpdateKind(%q)", byte(k))
	}
}

// Path is a chain of update kinds applied to an object-id-term, innermost
// first: the version-id-term ins(del(mod(o))) has Path "mdi". Paths are
// plain strings so they compare and hash as values; subterm testing on
// version-id-terms is prefix testing on paths.
type Path string

// PathOf builds a Path from kinds, innermost first.
func PathOf(kinds ...UpdateKind) Path {
	b := make([]byte, len(kinds))
	for i, k := range kinds {
		if !k.Valid() {
			panic("term: invalid update kind in path")
		}
		b[i] = byte(k)
	}
	return Path(b)
}

// Push returns the path extended by one more (outermost) application of k.
func (p Path) Push(k UpdateKind) Path {
	if !k.Valid() {
		panic("term: invalid update kind " + k.String())
	}
	return p + Path(k)
}

// Pop returns the path with the outermost application removed, plus that
// kind. It panics on the empty path.
func (p Path) Pop() (Path, UpdateKind) {
	if len(p) == 0 {
		panic("term: Pop on empty path")
	}
	return p[:len(p)-1], UpdateKind(p[len(p)-1])
}

// Outer returns the outermost update kind, or 0 if the path is empty.
func (p Path) Outer() UpdateKind {
	if len(p) == 0 {
		return 0
	}
	return UpdateKind(p[len(p)-1])
}

// Len returns the number of update applications in the path.
func (p Path) Len() int { return len(p) }

// HasPrefix reports whether q is an inner prefix of p, i.e. whether the
// version-id-term with path q is a subterm of the one with path p (given
// equal bases). Every path is a prefix of itself.
func (p Path) HasPrefix(q Path) bool { return strings.HasPrefix(string(p), string(q)) }

// Var is a variable of the language. Variables quantify over the set O of
// OIDs only — never over version identities; this restriction is what keeps
// bottom-up evaluation of safe programs terminating (Section 2.1).
type Var string

// ObjTerm is an object-id-term: a variable or an OID. Both implementations
// are comparable values, so ObjTerm values compare with == and may key maps.
type ObjTerm interface {
	fmt.Stringer
	isObjTerm()
}

func (Var) isObjTerm() {}
func (OID) isObjTerm() {}

func (v Var) String() string { return string(v) }

// IsGround reports whether t is an OID (not a variable).
func IsGround(t ObjTerm) bool {
	_, ok := t.(OID)
	return ok
}

// VersionID is a version-id-term: an object-id-term wrapped in zero or more
// update-kind applications. It is ground when its base is an OID; a ground
// VersionID denotes a version identity (VID).
//
// Any marks the version wildcard any(base): "some version of base,
// including base itself". It is the careful slice of Section 6's
// "quantify over VIDs" future work: existential, query-position only
// (queries and derived-rule bodies; package safety rejects it in
// update-rules), so it cannot affect termination of update evaluation.
// Any and a non-empty Path are mutually exclusive.
type VersionID struct {
	Base ObjTerm
	Path Path
	Any  bool
}

// NewVersionID wraps base in the given kinds, innermost first.
func NewVersionID(base ObjTerm, kinds ...UpdateKind) VersionID {
	return VersionID{Base: base, Path: PathOf(kinds...)}
}

// Ground reports whether the version-id-term denotes one concrete version:
// its base is an OID and it is not a wildcard.
func (v VersionID) Ground() bool { return IsGround(v.Base) && !v.Any }

// GVID returns the ground version identity; it panics unless Ground.
func (v VersionID) GVID() GVID {
	oid, ok := v.Base.(OID)
	if !ok || v.Any {
		panic("term: GVID on non-ground version-id-term " + v.String())
	}
	return GVID{Object: oid, Path: v.Path}
}

// Push returns the version-id-term wrapped in one more application of k.
// It panics on a wildcard, which cannot be nested.
func (v VersionID) Push(k UpdateKind) VersionID {
	if v.Any {
		panic("term: cannot wrap the any(...) wildcard in " + k.String())
	}
	return VersionID{Base: v.Base, Path: v.Path.Push(k)}
}

// Subterms returns all version-id-subterms of v, from the base (path
// length 0) up to v itself, as required by the stratification conditions.
// A wildcard has only itself (the stratifier never sees wildcards; safety
// rejects them in update-rules).
func (v VersionID) Subterms() []VersionID {
	if v.Any {
		return []VersionID{v}
	}
	out := make([]VersionID, 0, v.Path.Len()+1)
	for i := 0; i <= v.Path.Len(); i++ {
		out = append(out, VersionID{Base: v.Base, Path: v.Path[:i]})
	}
	return out
}

// String renders the version-id-term, e.g. "ins(del(mod(henry)))" or
// "any(E)".
func (v VersionID) String() string {
	if v.Any {
		return "any(" + v.Base.String() + ")"
	}
	var b strings.Builder
	for i := v.Path.Len() - 1; i >= 0; i-- {
		b.WriteString(UpdateKind(v.Path[i]).String())
		b.WriteByte('(')
	}
	b.WriteString(v.Base.String())
	for i := 0; i < v.Path.Len(); i++ {
		b.WriteByte(')')
	}
	return b.String()
}

// GVID is a ground version identity: an element of the set O_V of the
// paper. It is a comparable value type.
type GVID struct {
	Object OID
	Path   Path
}

// GV builds the GVID for object wrapped in kinds, innermost first.
func GV(object OID, kinds ...UpdateKind) GVID {
	return GVID{Object: object, Path: PathOf(kinds...)}
}

// VersionID converts back to the (ground) version-id-term form.
func (g GVID) VersionID() VersionID { return VersionID{Base: g.Object, Path: g.Path} }

// Push returns the VID extended by one application of k.
func (g GVID) Push(k UpdateKind) GVID { return GVID{Object: g.Object, Path: g.Path.Push(k)} }

// IsObject reports whether the VID is a plain OID (path empty).
func (g GVID) IsObject() bool { return g.Path.Len() == 0 }

// String renders the VID, e.g. "del(mod(bob))".
func (g GVID) String() string { return g.VersionID().String() }

// Compare orders GVIDs for deterministic output: by object, then by path
// length, then lexicographically by path.
func (g GVID) Compare(h GVID) int {
	if c := g.Object.Compare(h.Object); c != 0 {
		return c
	}
	if g.Path.Len() != h.Path.Len() {
		if g.Path.Len() < h.Path.Len() {
			return -1
		}
		return 1
	}
	return strings.Compare(string(g.Path), string(h.Path))
}
