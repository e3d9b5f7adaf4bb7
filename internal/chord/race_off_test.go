//go:build !race

package chord

const raceEnabled = false
