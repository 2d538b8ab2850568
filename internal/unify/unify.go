// Package unify implements sorted unification for the verlog language.
//
// Unification here is *sorted*: variables quantify over the set O of OIDs
// only (Section 2.1 of the paper), so a variable unifies with a variable or
// an OID but never with a term containing an update function symbol.
// Consequently two version-id-terms unify exactly when their update-kind
// paths are identical and their bases unify. Without this sorting the
// stratification conditions of Section 4 would relate almost every pair of
// rules and reject every program.
package unify

import "verlog/internal/term"

// ObjTerms reports whether two object-id-terms unify under sorted
// unification: Var–Var, Var–OID, OID–Var always; OID–OID only when equal.
func ObjTerms(a, b term.ObjTerm) bool {
	ao, aIsOID := a.(term.OID)
	bo, bIsOID := b.(term.OID)
	if aIsOID && bIsOID {
		return ao == bo
	}
	return true
}

// VersionIDs reports whether two version-id-terms unify: identical paths
// and unifiable bases. A bare variable does not unify with a term whose
// path is non-empty, because the variable can only denote an OID.
func VersionIDs(a, b term.VersionID) bool {
	return a.Path == b.Path && ObjTerms(a.Base, b.Base)
}
