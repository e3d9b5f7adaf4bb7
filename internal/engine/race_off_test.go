//go:build !race

package engine

const raceEnabled = false
