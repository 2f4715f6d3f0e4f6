//go:build !unix

package main

// flushDisk is a no-op where the platform has no sync(2).
func flushDisk() {}
