package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current output")

// TestRunGoldenOutput pins bitsim's full stdout — header, -trace lines,
// -plot chart and the -metrics snapshot — byte for byte in every
// count-tracking mode. The snapshot holds counters and histograms only,
// no clock readings, so the output is a pure function of the flags.
// Regenerate with `go test ./cmd/bitsim -run Golden -update` only when
// an output change is intended.
func TestRunGoldenOutput(t *testing.T) {
	base := []string{"-rule", "voter", "-init", "32", "-rounds", "200", "-seed", "3",
		"-trace", "10", "-plot", "-metrics", "-"}
	cases := []struct {
		name string
		args []string
	}{
		{"parallel", []string{"-n", "64", "-mode", "parallel"}},
		{"sequential", []string{"-n", "64", "-mode", "sequential"}},
		{"agents", []string{"-n", "64", "-mode", "agents"}},
		{"packed", []string{"-n", "64", "-mode", "packed"}},
		{"chunked", []string{"-n", "64", "-mode", "chunked"}},
		{"aggregated", []string{"-n", "64", "-mode", "aggregated"}},
		// Two bitset shards need two whole words, so the sharded case runs
		// at n=128 (the later -init overrides the base's).
		{"packed_shards2", []string{"-n", "128", "-init", "64", "-mode", "packed", "-shards", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(append(append([]string(nil), base...), tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
