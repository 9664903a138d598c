//go:build !race

package deploy

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
