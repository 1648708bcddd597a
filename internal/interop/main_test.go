package interop

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain fails the package when a test leaves a shm segment file of
// this process behind, in either place the attribute space server puts
// them; connections still being torn down get a few seconds to remove
// theirs.
func TestMain(m *testing.M) {
	code := m.Run()
	name := fmt.Sprintf("tdp-shm-%d-*", os.Getpid())
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var left []string
		for _, dir := range []string{"/dev/shm", os.TempDir()} {
			found, _ := filepath.Glob(filepath.Join(dir, name))
			left = append(left, found...)
		}
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "shm segment files left behind: %v\n", left)
			code = 1
			break
		}
	}
	os.Exit(code)
}
