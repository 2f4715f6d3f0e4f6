//go:build !unix

package durable

import "os"

// lockFile is a no-op where flock(2) is unavailable: logs keep their
// single-writer-by-convention behaviour on such platforms.
func lockFile(f *os.File, path string) error { return nil }

// syncDir is a no-op where directories cannot be opened for fsync.
func syncDir(dir string) error { return nil }
