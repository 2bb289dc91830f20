//go:build !race

package scenario_test

const raceEnabled = false
