package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bitspread/internal/durable"
	"bitspread/internal/fabric"
)

// A second daemon on a live DataDir must fail fast on the job log's lock,
// naming the holder, and leave jobs.jsonl byte-identical — even when it
// ends in a torn tail the holder has not cut — so the cut only ever
// happens after the lock is taken.
func TestSecondServerOnLiveDataDirFailsOnLock(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "jobs.jsonl")
	s, ts := newTestServer(t, Options{DataDir: dir})
	code, _, st := submitJSON(t, ts, testSpec(3), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != "done" {
		t.Fatalf("job ended %q", fin.State)
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"submit","id":"ff","spe`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	_, err = New(Options{DataDir: dir})
	if err == nil {
		t.Fatal("second server acquired a live data dir")
	}
	if want := fmt.Sprintf("locked by pid %d", os.Getpid()); !strings.Contains(err.Error(), want) {
		t.Fatalf("lock error %q does not name the holder (%s)", err, want)
	}
	if after, _ := os.ReadFile(logPath); !bytes.Equal(after, before) {
		t.Fatalf("failed second server changed jobs.jsonl:\n%q\nwant\n%q", after, before)
	}

	// Once the holder is gone the next server takes the lock and cuts
	// the torn tail before appending anything.
	ts.Close()
	s.Close()
	newTestServer(t, Options{DataDir: dir})
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := before[:bytes.LastIndexByte(before, '\n')+1]; !bytes.Equal(after, want) {
		t.Fatalf("restart left jobs.jsonl as\n%q\nwant\n%q", after, want)
	}
}

// A crash inside durable.WriteFileAtomic can strand a temp file next to
// any published target: the result cache, the protocol registry and the
// fabric shards. A restarted server must read none of them — neither a
// half-written temp nor a complete one whose rename never happened.
func TestStrandedTempFilesAreInvisibleAfterRestart(t *testing.T) {
	dir := t.TempDir()
	fopts := &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true, Partitions: 2}
	s1, ts1 := newTestServer(t, Options{DataDir: dir, Fabric: fopts})
	code, ps := postProtocol(t, ts1, ProtocolSpec{Asm: voterAsm})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	code, _, js := submitJSON(t, ts1, testSpec(4), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if fin := waitTerminal(t, ts1, js.ID); fin.State != "done" {
		t.Fatalf("job ended %q", fin.State)
	}
	ts1.Close()
	s1.Close()

	protoPath := filepath.Join(dir, "protocols", ps.ID+".bsvm")
	prog, err := os.ReadFile(protoPath)
	if err != nil {
		t.Fatal(err)
	}
	result, err := os.ReadFile(filepath.Join(dir, "cache", js.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	shard := runShardBytes(t, fopts.spec(), fabric.Shard{Index: 0, Count: 2})
	// The protocol's only copy now sits in temp files; the result and the
	// shard are stranded under names no published file has.
	if err := os.Remove(protoPath); err != nil {
		t.Fatal(err)
	}
	const ghost = "0123456789abcdef0123456789abcdef"
	targets := map[string][]byte{
		protoPath: prog,
		filepath.Join(dir, "cache", ghost+".json"):    result,
		filepath.Join(dir, "fabric", "shard-0.jsonl"): shard,
	}
	var planted []string
	for final, data := range targets {
		for i, d := range [][]byte{data[:len(data)/2], data} {
			name := strings.Replace(durable.TempPattern(filepath.Base(final)), "*", fmt.Sprint(i), 1)
			planted = append(planted, name)
			if err := os.WriteFile(filepath.Join(filepath.Dir(final), name), d, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	var mu sync.Mutex
	var logged []string
	s2, _ := newTestServer(t, Options{DataDir: dir, Fabric: fopts, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if _, ok := s2.protos.lookup(ps.ID); ok {
		t.Error("protocol registry loaded a stranded temp file")
	}
	if _, ok := s2.cache.get(ghost); ok {
		t.Error("result cache served a stranded temp file")
	}
	if got := s2.fabric.board.Stats().Done; got != 0 {
		t.Errorf("fabric pre-completed %d partitions from stranded temp files", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		for _, name := range planted {
			if strings.Contains(line, name) {
				t.Errorf("a reader opened a stranded temp file: %s", line)
			}
		}
	}
}
