// Fixture: the durable-storage primitives are in the crash-safety core.
package durable

import "os"

func publish(tmp *os.File, path string) error {
	tmp.Sync() // want "discarded error"
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
