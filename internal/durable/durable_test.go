package durable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// openReplay opens the log at path and returns it with its replayed lines.
func openReplay(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := OpenLog(path, LogOptions{Replay: func(line []byte) error {
		got = append(got, string(line))
		return nil
	}})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return l, got
}

// TestLogCutPointEnumeration proves the commit rule over every crash
// point: a log cut at any byte length L reopens cleanly, replays exactly
// the records whose newline lies before L, accepts a further append, and
// replays that append after the next open.
func TestLogCutPointEnumeration(t *testing.T) {
	const k = 12
	r := rand.New(rand.NewPCG(12, 2024))
	records := make([]string, k)
	for i := range records {
		b := make([]byte, 1+r.IntN(24))
		for j := range b {
			b[j] = byte('!' + r.IntN('~'-'!'))
		}
		records[i] = string(b)
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.log")
	l, err := OpenLog(full, LogOptions{Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cut.log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var want []string
		for i, end := 0, 0; i < k; i++ {
			end += len(records[i]) + 1
			if end <= cut {
				want = append(want, records[i])
			}
		}
		l, got := openReplay(t, path)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d: replayed %q, want %q", cut, got, want)
		}
		extra := fmt.Sprintf("extra-%d", cut)
		if err := l.Append([]byte(extra)); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, got = openReplay(t, path)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if want = append(want, extra); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cut %d: after append replayed %q, want %q", cut, got, want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(after, []byte("\n")) {
			t.Fatalf("cut %d: log does not end in a newline: %q", cut, after)
		}
	}
}

func TestLogCorruptCommittedLineIsAnErrorAndLeavesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	content := []byte("ok\nbad\nok\ntorn")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLog(path, LogOptions{Replay: func(line []byte) error {
		if string(line) == "bad" {
			return fmt.Errorf("unparsable")
		}
		return nil
	}})
	if err == nil || !strings.Contains(err.Error(), "line 2 corrupt") {
		t.Fatalf("corrupt committed line: err = %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, content) {
		t.Fatalf("failed open modified the file: %q", after)
	}
}

func TestLogTailCutIsLogged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("a\n\nb\ntor"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	var got []string
	l, err := OpenLog(path, LogOptions{
		Replay: func(line []byte) error { got = append(got, string(line)); return nil },
		Logf:   func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if fmt.Sprint(got) != "[a b]" {
		t.Fatalf("replayed %q, want the two non-blank committed lines", got)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "truncated final line 4 (3 bytes") {
		t.Fatalf("diagnostics = %q", logged)
	}
}

func TestLogFreshEmptiesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(path, LogOptions{Fresh: true, Fsync: true, Replay: func([]byte) error {
		t.Fatal("fresh open replayed a line")
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); string(after) != "new\n" {
		t.Fatalf("file = %q", after)
	}
}

// Each open owes the log's directory one fsync, paid by the first fsynced
// append, so the name of a file holding acknowledged records is durable.
func TestLogSyncsDirectoryOnFirstFsyncedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	for i := 0; i < 2; i++ {
		l, err := OpenLog(path, LogOptions{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if l.dir != filepath.Dir(path) {
			t.Fatalf("open %d: pending directory sync %q, want %q", i, l.dir, filepath.Dir(path))
		}
		if err := l.Append([]byte("rec")); err != nil {
			t.Fatal(err)
		}
		if l.dir != "" {
			t.Fatalf("open %d: directory still unsynced after an fsynced append", i)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A second opener fails on the lock, naming the holder, and leaves the
// bytes alone — even a torn tail the holder has not cut yet.
func TestLogExclusiveLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenLog(path, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("tor"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, fresh := range []bool{false, true} {
		_, err = OpenLog(path, LogOptions{Fresh: fresh})
		if want := fmt.Sprintf("locked by pid %d", os.Getpid()); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("fresh=%v: second open err = %v, want %q", fresh, err, want)
		}
		if after, _ := os.ReadFile(path); string(after) != "rec\ntor" {
			t.Fatalf("fresh=%v: failed opener changed the file to %q", fresh, after)
		}
	}
}

// Concurrent appends each land as one whole line.
func TestLogConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenLog(path, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got := openReplay(t, path)
	defer l.Close()
	seen := map[string]bool{}
	for _, line := range got {
		seen[line] = true
	}
	if len(got) != writers*each || len(seen) != writers*each {
		t.Fatalf("replayed %d lines (%d distinct), want %d", len(got), len(seen), writers*each)
	}
}

// After a failed write nothing more is appended: a later record must not
// land behind whatever fragment the failure left.
func TestLogRefusesAppendsAfterWriteFailure(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "log"), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	first := l.Append([]byte("a"))
	if first == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if err := l.Append([]byte("b")); !errors.Is(err, first) {
		t.Fatalf("second append = %v, want the latched %v", err, first)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestWriteFileAtomicFailureRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	// Renaming a file over a non-empty directory fails after the temp
	// file is fully written.
	target := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("data")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "busy" {
		t.Fatalf("failed publish left %v", entries)
	}
}

// The temp name a crash can strand must match none of the names or globs
// the durable files' readers use.
func TestTempPatternEscapesReaderGlobs(t *testing.T) {
	for _, base := range []string{"0123abcd.json", "0123abcd.bsvm", "shard-0.jsonl", "merged.jsonl"} {
		tmp := strings.Replace(TempPattern(base), "*", "123456", 1)
		for _, glob := range []string{"*.json", "*.bsvm", "*.jsonl", "shard-*.jsonl", base} {
			if ok, _ := filepath.Match(glob, tmp); ok {
				t.Errorf("temp name %s matches reader pattern %s", tmp, glob)
			}
		}
	}
}
