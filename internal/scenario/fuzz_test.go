package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecCanonicalization fuzzes the spec identity pipeline: parse →
// canonicalize → hash. The invariants it holds are the ones the whole
// durability story rests on (results are cached, persisted, and deduped
// across a fleet under the canonical hash):
//
//   - no input makes ParseSpec, Canonical, Validate, or CanonicalHash panic;
//   - only the exact engine validates: any other engine name, the removed
//     "leap" included, is rejected;
//   - hashing is deterministic: two CanonicalHash calls on the same spec
//     agree byte-for-byte;
//   - Canonical is idempotent: Canonical(Canonical(s)) == Canonical(s);
//   - hashing is canonicalization-invariant: a spec and its canonical form
//     hash identically, and so does the canonical form re-decoded from its
//     own JSON (the round trip a spec takes through the store).
//
// The seed corpus is every shipped preset plus hostile hand-written JSON
// (empty objects, zero values, non-finite floats, deep pointers set, removed
// and misspelled engine names).
func FuzzSpecCanonicalization(f *testing.F) {
	for _, p := range Presets() {
		b, err := json.Marshal(p.Spec)
		if err != nil {
			f.Fatalf("marshal preset %s: %v", p.Name, err)
		}
		f.Add(b)
	}
	for _, hostile := range []string{
		`{}`,
		`null`,
		`{"algorithm":"mis","network":{"n":0}}`,
		`{"algorithm":"async_mis","network":{"n":3},"wake":{"max_delay":0}}`,
		`{"algorithm":"continuous_ccds","network":{"n":4},"dynamic":{"mistakes":0,"periods":0}}`,
		`{"algorithm":"ccds","network":{"n":8,"target_degree":1e308},"b":-1}`,
		`{"algorithm":"mis","network":{"n":5,"gray_prob":-0.5},"adversary":{"kind":"uniform","p":2}}`,
		`{"version":99,"algorithm":"tau_ccds","network":{"n":6,"tau":-3},"trial_retention":"bogus"}`,
		`{"algorithm":"mis","network":{"n":2},"seed":18446744073709551615,"timeout_ms":-1}`,
		`{"algorithm":"mis","network":{"n":8},"engine":"leap"}`,
		`{"algorithm":"ccds","network":{"n":8},"b":512,"engine":"exact"}`,
		`{"algorithm":"mis","network":{"n":8},"engine":"EXACT"}`,
		`{"algorithm":"tau-ccds","network":{"n":8,"tau":1},"b":512,"engine":""}`,
	} {
		f.Add([]byte(hostile))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		// Validate must not panic, even on garbage.
		if err := s.Validate(); err == nil && s.Canonical().Engine != "" {
			t.Fatalf("engine %q validated; only exact exists", s.Engine)
		}

		h1, err1 := s.CanonicalHash()
		h2, err2 := s.CanonicalHash()
		if (err1 == nil) != (err2 == nil) || h1 != h2 {
			t.Fatalf("CanonicalHash not deterministic: (%q, %v) vs (%q, %v)", h1, err1, h2, err2)
		}

		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(c, cc) {
			t.Fatalf("Canonical not idempotent:\n first: %+v\nsecond: %+v", c, cc)
		}
		if err1 != nil {
			return // unhashable (e.g. non-finite floats); nothing left to hold
		}
		hc, err := c.CanonicalHash()
		if err != nil || hc != h1 {
			t.Fatalf("hash not canonicalization-invariant: spec %q vs canonical %q (err %v)", h1, hc, err)
		}

		// The store round trip: encode the canonical form, re-decode, re-hash.
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal canonical form: %v", err)
		}
		rt, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("re-parse canonical form: %v", err)
		}
		hrt, err := rt.CanonicalHash()
		if err != nil || hrt != h1 {
			t.Fatalf("hash not round-trip stable: %q vs %q (err %v)", h1, hrt, err)
		}
	})
}
