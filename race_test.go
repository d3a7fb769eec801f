//go:build race

package repro

// The race detector makes sync.Pool drop a random share of what is put
// back, so allocation counts of pooled code are not stable under it.
func init() { raceDetector = true }
