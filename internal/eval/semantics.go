package eval

// Semantics numbers what this evaluator computes: result(P), ob', the
// fired-update count and the stratification of a program on a base. A
// repository's journal records programs, not their effects, and derives
// each state again by evaluating them, so a journal is read only under the
// semantics it was written under; a checkpoint names its semantics, and a
// change that moves any of those outputs bumps the number. The conformance
// test (semantics_test.go) holds it to the outputs the golden files pin.
const Semantics = 1
