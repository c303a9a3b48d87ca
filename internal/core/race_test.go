//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops some
// of what it is given, so allocation counts do not hold.
const raceEnabled = true
