package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// quickSHA256 pins the sha256 of `experiments -quick` output, the
// determinism oracle: every refactor and deletion must leave the
// reproduction tables byte-identical. A change that alters executions on
// purpose regenerates testdata/quick.golden (go run . -quick >
// testdata/quick.golden) and updates this hash in the same diff.
const quickSHA256 = "09d6d371ff128296643175daf63061ff881f1b529ff030bc0443132bf6c79c94"

func TestQuickOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	var out bytes.Buffer
	if err := run([]string{"-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != quickSHA256 {
		t.Errorf("experiments -quick sha256 = %s, want %s", got, quickSHA256)
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("output differs from testdata/quick.golden at line %d:\n got %s\nwant %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/quick.golden has %d", len(gotLines), len(wantLines))
	}
}
