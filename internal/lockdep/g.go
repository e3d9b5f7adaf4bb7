//go:build amd64 || arm64

package lockdep

const haveG = true

// getg returns the runtime's g pointer of the calling goroutine: its
// identity while it runs, reused by a later goroutine once it ends.
func getg() uintptr
