//go:build !race

package testgen_test

const raceEnabled = false
