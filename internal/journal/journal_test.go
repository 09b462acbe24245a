package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type rec struct {
	Op string `json:"op"`
	ID int    `json:"id"`
}

func readRecs(t *testing.T, path string) []rec {
	t.Helper()
	lines, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]rec, 0, len(lines))
	for _, l := range lines {
		var r rec
		if err := json.Unmarshal(l, &r); err != nil {
			t.Fatalf("bad record %q: %v", l, err)
		}
		out = append(out, r)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{"accept", 1}, {"start", 1}, {"terminal", 1}}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Appends(); got != 3 {
		t.Fatalf("Appends() = %d, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readRecs(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
}

func TestReadAllMissingFileIsEmpty(t *testing.T) {
	lines, err := ReadAll(filepath.Join(t.TempDir(), "absent.ndjson"))
	if err != nil || lines != nil {
		t.Fatalf("missing journal: %v records, err %v", lines, err)
	}
}

// A crash mid-append leaves a torn final line; replay must discard it and
// keep every complete record before it.
func TestReadAllDiscardsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	body := `{"op":"accept","id":1}` + "\n" + `{"op":"start","id":1}` + "\n" + `{"op":"term`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got := readRecs(t, path)
	want := []rec{{"accept", 1}, {"start", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay with torn tail = %v, want %v", got, want)
	}
	// A journal that is nothing but a torn line replays empty.
	if err := os.WriteFile(path, []byte(`{"op":"acc`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readRecs(t, path); len(got) != 0 {
		t.Fatalf("all-torn journal replayed %v", got)
	}
}

// A record has no length cap: one larger than any line buffer replays
// intact between its neighbors.
func TestReadAllKeepsRecordLongerThanOneMiB(t *testing.T) {
	type padded struct {
		Op  string `json:"op"`
		Pad string `json:"pad,omitempty"`
	}
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	want := []padded{{Op: "accept"}, {Op: "big", Pad: strings.Repeat("x", 2<<20)}, {Op: "terminal"}}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(lines), len(want))
	}
	for i, l := range lines {
		var got padded
		if err := json.Unmarshal(l, &got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("record %d = %q (%d pad bytes), want %q (%d pad bytes)",
				i, got.Op, len(got.Pad), want[i].Op, len(want[i].Pad))
		}
	}
}

// Begin must leave the previous generation readable until Seal renames the
// new one over it — the crash-mid-rebuild guarantee.
func TestBeginPreservesPreviousGenerationUntilSeal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	if err := os.WriteFile(path, []byte(`{"op":"accept","id":7}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec{"accept", 8}); err != nil {
		t.Fatal(err)
	}
	// Before Seal: the old generation is what ReadAll sees.
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 7}}) {
		t.Fatalf("pre-seal replay = %v, want the previous generation", got)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	// After Seal: the new generation took over, and appends keep landing in
	// it through the already-open descriptor.
	if err := j.Append(rec{"start", 8}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 8}, {"start", 8}}) {
		t.Fatalf("post-seal replay = %v", got)
	}
}

func TestCompactReplacesContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(nil); err == nil {
		t.Fatal("Compact before Seal must fail")
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(rec{"accept", i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact([]any{rec{"accept", 9}}); err != nil {
		t.Fatal(err)
	}
	if got := j.Appends(); got != 1 {
		t.Fatalf("Appends() after compact = %d, want 1", got)
	}
	// Appends continue into the compacted generation.
	if err := j.Append(rec{"terminal", 9}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := readRecs(t, path); !reflect.DeepEqual(got, []rec{{"accept", 9}, {"terminal", 9}}) {
		t.Fatalf("post-compact replay = %v", got)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Seal(); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Append(rec{"accept", w*per + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	got := readRecs(t, path)
	if len(got) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(got), writers*per)
	}
	seen := make(map[int]bool, len(got))
	for _, r := range got {
		if seen[r.ID] {
			t.Fatalf("record %d appeared twice (torn interleaved write?)", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestClosedJournalRejectsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := Begin(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Seal()
	j.Close()
	if err := j.Append(rec{"accept", 1}); err == nil {
		t.Fatal("append to closed journal succeeded")
	}
}
