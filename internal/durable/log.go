package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// LogOptions configures OpenLog.
type LogOptions struct {
	// Fresh empties the log instead of replaying it.
	Fresh bool
	// Fsync forces an fsync(2) after every Append, so an appended record
	// survives a machine crash, not just a process kill.
	Fsync bool
	// Replay, if non-nil, receives every committed non-blank line in file
	// order. An error from it marks the line corrupt and fails the open
	// without touching the file.
	Replay func(line []byte) error
	// Logf, if non-nil, reports the cut of an uncommitted tail.
	Logf func(format string, args ...any)
}

// DecodeJSON adapts fn to LogOptions.Replay for a log of JSON lines: each
// committed line is decoded into a fresh T.
func DecodeJSON[T any](fn func(T)) func(line []byte) error {
	return func(line []byte) error {
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		fn(v)
		return nil
	}
}

// Log is an append-only line log held under an exclusive flock for its
// whole lifetime. It is safe for concurrent use.
type Log struct {
	mu    sync.Mutex
	f     *os.File
	fsync bool
	// dir is fsynced with the first fsynced Append after open, then
	// cleared: an acknowledged record must not sit in a file whose
	// directory entry a crash could still lose.
	dir string
	// err latches the first failed write or sync. A failed write can
	// leave a fragment with no '\n' on disk, so every later Append is
	// refused: nothing may be glued onto it before the next open cuts it.
	err error
}

// OpenLog opens (or creates) the log at path and takes its lock; a second
// opener fails naming the holder's PID and leaves the file untouched. Only
// then are the committed lines replayed and the uncommitted tail after the
// last '\n' — never acknowledged — cut off.
func OpenLog(path string, opts LogOptions) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := open(f, path, opts); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &Log{f: f, fsync: opts.Fsync, dir: filepath.Dir(path)}, nil
}

// open locks f, then replays and trims it (or empties it when fresh).
func open(f *os.File, path string, opts LogOptions) error {
	if err := lockFile(f, path); err != nil {
		return err
	}
	if opts.Fresh {
		return f.Truncate(0)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines, tail := SplitCommitted(data)
	if opts.Replay != nil {
		for i, line := range lines {
			if len(line) == 0 {
				continue
			}
			if err := opts.Replay(line); err != nil {
				return fmt.Errorf("%s line %d corrupt: %w", path, i+1, err)
			}
		}
	}
	if len(tail) == 0 {
		return nil
	}
	if opts.Logf != nil {
		opts.Logf("durable: %s: dropping truncated final line %d (%d bytes with no newline)", path, len(lines)+1, len(tail))
	}
	return f.Truncate(int64(len(data) - len(tail)))
}

// Append writes line plus '\n' in one write and, with Fsync, syncs it
// (and, the first time after open, its directory) before returning. The record is committed once Append returns nil.
func (l *Log) Append(line []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	_, err := l.f.Write(append(line[:len(line):len(line)], '\n'))
	if err == nil && l.fsync {
		err = l.f.Sync()
		if err == nil && l.dir != "" {
			err = syncDir(l.dir)
			l.dir = ""
		}
	}
	l.err = err
	return err
}

// Close releases the file and its lock; later Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
