package serve

import (
	"encoding/json"
	"fmt"

	"bitspread/internal/durable"
)

// jobLogEntry is one line of the job intent log: either the acceptance of
// a job ("submit", with its full spec) or its terminal state ("end").
// The log is what makes acceptance crash-safe: the submit line is fsynced
// before the client sees 202, so a SIGKILL'd daemon knows on restart
// exactly which accepted jobs never reached an end state and re-runs
// them — with every finished replica served from the sim journal, so the
// redo converges on byte-identical results.
type jobLogEntry struct {
	Ev    string   `json:"ev"` // "submit" | "end"
	ID    string   `json:"id"`
	Spec  *JobSpec `json:"spec,omitempty"`  // submit lines
	State string   `json:"state,omitempty"` // end lines: done, failed, cancelled
	Error string   `json:"error,omitempty"` // end lines: failure cause
}

// jobLog is the append-only JSONL intent log, a durable.Log with fsync on
// every append. A nil log (memory-only server) records nothing.
type jobLog struct {
	log *durable.Log
}

// openJobLog opens (or creates) the log at path under its exclusive lock
// and replays the committed entries in order. A torn final line — a
// submit cut off by a kill before its fsync completed — is cut from the
// file with a diagnostic: the client never got its 202 for that job, so
// dropping it is the correct recovery.
func openJobLog(path string, logf func(string, ...any)) (*jobLog, []jobLogEntry, error) {
	var entries []jobLogEntry
	log, err := durable.OpenLog(path, durable.LogOptions{
		Fsync:  true,
		Replay: durable.DecodeJSON(func(e jobLogEntry) { entries = append(entries, e) }),
		Logf:   logf,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: job log: %w", err)
	}
	return &jobLog{log: log}, entries, nil
}

// append writes one entry, fsynced before returning.
func (l *jobLog) append(e jobLogEntry) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("serve: job log encode: %w", err)
	}
	if err := l.log.Append(line); err != nil {
		return fmt.Errorf("serve: job log append: %w", err)
	}
	return nil
}

// close closes the file and releases its lock.
func (l *jobLog) close() error {
	if l == nil {
		return nil
	}
	return l.log.Close()
}
