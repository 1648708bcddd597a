//go:build race

package testkit

// Race reports whether the test binary was built with the race detector,
// under which sync.Pool drops a quarter of what is put into it: an
// allocation budget over pooled buffers holds only without it.
const Race = true
