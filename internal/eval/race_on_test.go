//go:build race

package eval

// raceEnabled reports that this test binary was built with -race: the
// allocation guards skip themselves there, since the detector allocates on
// its own account.
const raceEnabled = true
