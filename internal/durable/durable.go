// Package durable holds the crash contract of every durable file in two
// primitives. WriteFileAtomic publishes a whole file: readers and restarts
// see the old contents or the new, never a mix, and the new name survives
// a machine crash once it returns. Log is an append-only line log under an
// exclusive flock whose records are committed exactly when their '\n' is
// on disk; opening it cuts any uncommitted tail before the first append.
package durable

import (
	"errors"
	"os"
	"path/filepath"
)

// TempPattern is the os.CreateTemp pattern WriteFileAtomic uses for the
// target base name. A crash mid-write can leave such a file behind; its
// leading dot and ".tmp-<random>" suffix keep it out of every reader's
// exact names and extension globs ("*.json", "*.bsvm", "*.jsonl").
func TempPattern(base string) string {
	return "." + base + ".tmp-*"
}

// WriteFileAtomic replaces path with data: it writes a temp file in the
// same directory, fsyncs and closes it, renames it over path and fsyncs
// the directory so the rename itself is durable. On error the temp file
// is removed and path is untouched.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, TempPattern(filepath.Base(path)))
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return errors.Join(err, os.Remove(tmp.Name()))
	}
	return syncDir(dir)
}

// SplitCommitted splits log bytes into committed lines — each one ended
// by '\n', returned without it — and the uncommitted tail after the last
// '\n', which is empty when data ends in a newline.
func SplitCommitted(data []byte) (lines [][]byte, tail []byte) {
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	return lines, data[start:]
}
