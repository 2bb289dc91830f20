//go:build race

package scenario_test

// raceEnabled reports a race-instrumented build: the detector slows the
// datapath several-fold, so an absolute of the host does not hold under it.
const raceEnabled = true
