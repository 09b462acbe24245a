package scenario

import (
	"strings"
	"testing"
)

// TestEngineCanonicalDefault: "exact" is the canonical default — spelled
// out or omitted, the spec hashes identically to one that predates the
// engine field, so no stored result is orphaned by the field's existence.
func TestEngineCanonicalDefault(t *testing.T) {
	base := Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}}
	spelled := base
	spelled.Engine = EngineExact
	hBase := mustHash(t, base)
	if got := mustHash(t, spelled); got != hBase {
		t.Errorf("engine:\"exact\" hashes differently from the defaulted field:\n got %s\nwant %s", got, hBase)
	}
	if c := spelled.Canonical(); c.Engine != "" {
		t.Errorf("canonical spelling of exact engine is %q, want empty", c.Engine)
	}
	if err := spelled.Validate(); err != nil {
		t.Errorf("exact engine rejected: %v", err)
	}
}

// TestRemovedEngineRejected: the removed leap engine is refused with an error
// that says what to do, both as a spec field and as a sweep axis (strict
// decoding no longer knows the axis).
func TestRemovedEngineRejected(t *testing.T) {
	leap := Spec{Algorithm: AlgoMIS, Network: NetworkSpec{N: 64}, Engine: "leap"}
	const want = `engine "leap" was removed; omit engine`
	if err := leap.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("leap engine: got %v, want an error containing %q", err, want)
	}
	sweep := `{"base":{"algorithm":"mis","network":{"n":32}},"axes":{"n":{"values":[32,64]},"engine":["exact","leap"]}}`
	if _, err := ParseSweep([]byte(sweep)); err == nil || !strings.Contains(err.Error(), `"engine"`) {
		t.Errorf("sweep with an engine axis: got %v, want an unknown-field error", err)
	}
}
