package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"bitspread/internal/durable"
)

// MergeSource is one shard journal handed to MergeJournals: the raw JSONL
// bytes plus a name for diagnostics.
type MergeSource struct {
	Name string
	Data []byte
}

// MergeStats summarizes one merge.
type MergeStats struct {
	// Sources is the number of shard inputs (empty ones included).
	Sources int
	// Entries is the number of distinct (task, replica) checkpoints written.
	Entries int
	// Tasks is the number of distinct task keys.
	Tasks int
	// Deduped counts duplicate (task, replica) lines whose result bytes
	// were identical — overlapping partitions, speculative steals, or a
	// re-leased shard completed twice.
	Deduped int
	// Torn counts shards whose final line, cut off before its newline (the
	// signature of a killed worker), was dropped.
	Torn int
}

// String renders the stats as the one-line summary the CLIs print.
func (s MergeStats) String() string {
	return fmt.Sprintf("%d entries over %d tasks from %d shards (%d duplicates deduped, %d torn lines dropped)",
		s.Entries, s.Tasks, s.Sources, s.Deduped, s.Torn)
}

// mergeEntry is one parsed shard line. Result stays raw: the merged
// output re-emits exactly the bytes the producing engine wrote, so merge
// can never perturb a checkpoint through a decode/encode round trip.
type mergeEntry struct {
	Task    string          `json:"task"`
	Replica int             `json:"replica"`
	Seq     *int            `json:"seq"`
	Result  json.RawMessage `json:"result"`
}

// mergedLine is the canonical output line shape — field order identical
// to journalEntry, seq stripped.
type mergedLine struct {
	Task    string          `json:"task"`
	Replica int             `json:"replica"`
	Result  json.RawMessage `json:"result"`
}

// taskOrder tracks where a task sits in the canonical sequence.
type taskOrder struct {
	key string
	// ord is the task's global ordinal: the shard-recorded seq when the
	// shards carry one (partition mode), else the task's first-appearance
	// index within its first source (plain journals).
	ord int
	// firstSeen breaks ordinal ties between plain journals that numbered
	// tasks independently; it is the global discovery index.
	firstSeen int
}

// MergeJournals merges shard journals into one canonical checkpoint
// stream, proven byte-identical to the journal a single process with one
// sim worker writes for the same sweep:
//
//   - lines are ordered by (task ordinal, replica index) — the order the
//     single-process run emits them in;
//   - duplicate (task, replica) lines with identical result bytes are
//     deduplicated (overlapping partitions and speculative steals are
//     legal), while differing bytes are a hard error — determinism means
//     a divergent duplicate is corruption, never a judgment call;
//   - a torn final line (bytes after a shard's last newline: a worker
//     killed mid-write) is dropped and counted, exactly as the resume
//     loader treats it; a corrupt complete line is an error;
//   - empty shards are legal (a partition can own zero replicas).
//
// Result payloads are copied verbatim; merge never re-encodes them.
func MergeJournals(w io.Writer, srcs []MergeSource) (MergeStats, error) {
	stats := MergeStats{Sources: len(srcs)}
	type slot struct {
		result json.RawMessage
		src    string
	}
	entries := map[string]map[int]slot{}
	var order []taskOrder
	orderIdx := map[string]int{}

	for _, src := range srcs {
		lines, tail := durable.SplitCommitted(src.Data)
		if len(tail) > 0 {
			stats.Torn++
		}
		localOrd := 0
		localSeen := map[string]bool{}
		for i, line := range lines {
			if len(line) == 0 {
				continue
			}
			var e mergeEntry
			if err := json.Unmarshal(line, &e); err != nil || len(e.Result) == 0 || e.Task == "" {
				if err == nil {
					err = fmt.Errorf("missing task or result field")
				}
				return stats, fmt.Errorf("sim: merge: shard %s line %d corrupt: %v", src.Name, i+1, err)
			}
			ord := localOrd
			if e.Seq != nil {
				ord = *e.Seq
			}
			if !localSeen[e.Task] {
				localSeen[e.Task] = true
				localOrd++
			}
			if _, ok := orderIdx[e.Task]; !ok {
				orderIdx[e.Task] = len(order)
				order = append(order, taskOrder{key: e.Task, ord: ord, firstSeen: len(order)})
			}
			m := entries[e.Task]
			if m == nil {
				m = map[int]slot{}
				entries[e.Task] = m
			}
			if prev, ok := m[e.Replica]; ok {
				if !bytes.Equal(prev.result, e.Result) {
					return stats, fmt.Errorf(
						"sim: merge: task %s replica %d has conflicting results in %s and %s — shards of one sweep are deterministic, so this is corruption or a mixed-seed merge",
						e.Task, e.Replica, prev.src, src.Name)
				}
				stats.Deduped++
				continue
			}
			m[e.Replica] = slot{result: e.Result, src: src.Name}
		}
	}

	sort.SliceStable(order, func(a, b int) bool {
		if order[a].ord != order[b].ord {
			return order[a].ord < order[b].ord
		}
		return order[a].firstSeen < order[b].firstSeen
	})

	for _, t := range order {
		m := entries[t.key]
		replicas := make([]int, 0, len(m))
		//bitlint:maporder keys are sorted immediately below; emission order never follows map order
		for r := range m {
			replicas = append(replicas, r)
		}
		sort.Ints(replicas)
		for _, r := range replicas {
			line, err := json.Marshal(mergedLine{Task: t.key, Replica: r, Result: m[r].result})
			if err != nil {
				return stats, fmt.Errorf("sim: merge encode: %w", err)
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return stats, fmt.Errorf("sim: merge write: %w", err)
			}
			stats.Entries++
		}
		stats.Tasks++
	}
	return stats, nil
}

// MergeJournalFiles reads the shard files and atomically replaces dst
// (which must not be one of the sources) with their merge.
func MergeJournalFiles(dst string, srcs ...string) (MergeStats, error) {
	sources := make([]MergeSource, 0, len(srcs))
	for _, path := range srcs {
		if path == dst {
			return MergeStats{}, fmt.Errorf("sim: merge: destination %s is also a source", dst)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return MergeStats{}, fmt.Errorf("sim: merge: %w", err)
		}
		sources = append(sources, MergeSource{Name: path, Data: data})
	}
	var buf bytes.Buffer
	stats, err := MergeJournals(&buf, sources)
	if err != nil {
		return stats, err
	}
	if err := durable.WriteFileAtomic(dst, buf.Bytes()); err != nil {
		return stats, fmt.Errorf("sim: merge: %w", err)
	}
	return stats, nil
}
