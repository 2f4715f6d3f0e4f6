//go:build unix

package main

import "syscall"

// flushDisk asks the kernel to write back every dirty page, so writeback
// left over from earlier work (a previous run's deleted data directory)
// does not stall this run's fsyncs and file creates.
func flushDisk() { syscall.Sync() }
