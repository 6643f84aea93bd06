package simconfig

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseConfig feeds arbitrary bytes through the full config intake
// path — Parse then Validate — the same pipeline every untrusted input
// crosses (hsfqd request bodies, sweep spec base configs, CLI files). The
// invariants: never panic, and inputs that are not valid JSON objects
// must be rejected by Parse, not limp through to Validate half-decoded.
func FuzzParseConfig(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`not json`,
		`[]`,
		`{"rate_mips": 100}`,
		`{"horizon": "10ms", "nodes": []}`,
		`{"horizon": "-5ms"}`,
		`{"horizon": 1e999}`,
		`{"nodes": [{"path": "/a", "leaf": "sfq"}]}`,
		`{"nodes": [{"path": "/a", "leaf": "nope", "weight": -1}]}`,
		`{"nodes": [{"path": "/a", "leaf": "sfq", "quantum": "xyz"}]}`,
		`{"threads": [{"name": "t", "leaf": "/missing"}]}`,
		`{"threads": [{"name": "", "program": {"kind": "unknowable"}}]}`,
		`{"interrupts": [{"kind": "poisson", "rate_per_sec": -3}]}`,
		`{"rate_mips": 100, "horizon": "20ms", "seed": 7,
		  "nodes": [{"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": "10ms"}],
		  "threads": [{"name": "a", "leaf": "/soft", "program": {"kind": "loop"}}]}`,
		`{"nodes": [{"path": "/a", "leaf": "sfq"}], "unknown_field": 1}`,
		"{\"horizon\": \"10éms\"}",
		`{"cores": -2, "nodes": [{"path": "/a", "leaf": "sfq"}]}`,
		`{"cores": 2, "policy": "gang", "nodes": [{"path": "/a", "leaf": "sfq"}]}`,
		`{"cores": 2, "policy": "steal", "switch_cost": "-1ms", "nodes": [{"path": "/a", "leaf": "sfq"}]}`,
		`{"cores": 2, "migration_cost": "-5us", "nodes": [{"path": "/a", "leaf": "sfq"}]}`,
		`{"cores": 2, "nodes": [{"path": "/a", "leaf": "sfq"}],
		  "threads": [{"name": "t", "leaf": "/a", "affinity": 5}]}`,
		`{"cores": 3, "policy": "global", "nodes": [{"path": "/a", "leaf": "sfq"}],
		  "threads": [{"name": "t", "leaf": "/a", "affinity": -1}]}`,
		// Multilevel-feedback and dynamic-quantum leaves: valid geometry,
		// then every combination their constructors panic on — Validate
		// must reject all of them (levels range, aging sign, per-level
		// quantum overflow, adaptation-band overflow).
		`{"nodes": [{"path": "/a", "leaf": "mlfq", "levels": 6, "quantum": "2ms", "aging": "200ms"}]}`,
		`{"nodes": [{"path": "/a", "leaf": "drr", "quantum": "4ms"}]}`,
		`{"nodes": [{"path": "/a", "leaf": "mlfq", "levels": -1}]}`,
		`{"nodes": [{"path": "/a", "leaf": "mlfq", "levels": 17}]}`,
		`{"nodes": [{"path": "/a", "leaf": "mlfq", "aging": "-1s"}]}`,
		`{"nodes": [{"path": "/a", "leaf": "mlfq", "levels": 16, "quantum": 1152921504606846976}]}`,
		`{"nodes": [{"path": "/a", "leaf": "drr", "quantum": 2305843009213693952}]}`,
		`{"nodes": [{"path": "/a", "leaf": "sfq", "levels": 3, "aging": "1s"}]}`,
		// An adversary-suite scenario: attacker and victim contending in
		// one arena leaf (the shape internal/adversary builds).
		`{"rate_mips": 100, "horizon": "2s", "seed": 11,
		  "nodes": [{"path": "/arena", "weight": 1, "leaf": "mlfq", "levels": 4, "quantum": "5ms", "aging": "300ms"}],
		  "threads": [
		    {"name": "victim", "leaf": "/arena", "program": {"kind": "loop"}},
		    {"name": "attacker", "leaf": "/arena", "program": {"kind": "onoff", "burst": 490000, "bursts": 1, "off": "100us"}}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(bytes.NewReader(data))
		if err != nil {
			// Rejected input carries no obligations; but the error must
			// be labeled as ours, not a raw json internal.
			if !strings.HasPrefix(err.Error(), "simconfig: ") {
				t.Fatalf("unlabeled parse error: %v", err)
			}
			return
		}
		// Whatever decoded must survive validation without panicking, and
		// a validation failure must locate the offending field.
		if verr := c.Validate(); verr != nil {
			fe, ok := verr.(*FieldError)
			if !ok {
				t.Fatalf("Validate returned %T (%v), want *FieldError", verr, verr)
			}
			if fe.Field == "" {
				t.Fatalf("FieldError without a field path: %v", verr)
			}
		}
	})
}
