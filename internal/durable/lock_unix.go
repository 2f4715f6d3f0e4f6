//go:build unix

package durable

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// lockFile takes an exclusive flock on f for the life of the handle and
// leaves the holder's PID in a `<path>.lock` sidecar, which a second
// opener names in its error. The kernel drops the lock when the holder's
// descriptor closes, so a SIGKILL'd holder never wedges the log.
func lockFile(f *os.File, path string) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if !errors.Is(err, syscall.EWOULDBLOCK) {
			return fmt.Errorf("lock %s: %w", path, err)
		}
		holder := "another process"
		if pid, rerr := os.ReadFile(path + ".lock"); rerr == nil {
			holder = "pid " + strings.TrimSpace(string(pid))
		}
		return fmt.Errorf("%s is locked by %s (flock held; a second writer would corrupt it)", path, holder)
	}
	// Best-effort holder advertisement; the lock itself is the guard.
	_ = advertise(path + ".lock")
	return nil
}

// advertise writes this process's PID into the lock sidecar in place:
// truncating to zero first would make ext4 flush the file on close.
func advertise(sidecar string) error {
	f, err := os.OpenFile(sidecar, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	pid := strconv.Itoa(os.Getpid()) + "\n"
	_, err = f.WriteAt([]byte(pid), 0)
	return errors.Join(err, f.Truncate(int64(len(pid))), f.Close())
}

// syncDir fsyncs a directory, making a create or rename inside it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
