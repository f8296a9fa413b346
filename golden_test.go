package dmdc_test

// Cycle-exact golden regression suite. Every (benchmark, config, policy)
// cell of a small matrix is simulated for a fixed instruction budget and
// the complete core.Result — cycle count, every stat counter in insertion
// order, and the full energy breakdown with event counts — is compared
// byte-for-byte against a fingerprint committed under testdata/golden/.
//
// The simulator is deterministic, so ANY behavioral drift — a replay fired
// one cycle earlier, a YLA register clamped differently, one extra energy
// event — fails this suite. That is the contract that makes hot-loop
// performance work shippable: an optimization that passes TestGoldenMatrix
// provably did not change a single committed cycle of any matrix cell.
//
// To regenerate after an INTENTIONAL behavior change:
//
//	go test -run Golden -update .
//
// and review the fingerprint diffs like source. See testdata/golden/README.md.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dmdc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fingerprints")

// goldenInsts is the per-cell instruction budget: large enough that every
// policy's machinery (windows, replays, recoveries, cache misses) is well
// exercised, small enough that the full matrix stays in test-suite budget.
const goldenInsts = 50_000

// goldenConfigs is the paper's three machines plus the off-paper
// IQ-pressure stress machine (tiny issue queues behind a thrashing L1D
// and slow memory): the latter keeps the scheduler IQ-full with
// long-latency wakeups, the regime where issue-ordering bugs that the
// roomy paper configs mask would surface.
func goldenConfigs() []dmdc.Machine {
	return []dmdc.Machine{dmdc.Config1(), dmdc.Config2(), dmdc.Config3(), dmdc.ConfigIQPressure()}
}

// goldenPolicies is the policy axis: the conventional baseline, the YLA
// filtering extension, both DMDC window-management variants, and the
// related-work schemes — the age-indexed hash table, value-based
// re-execution (its commit-time cache re-accesses and SVW-free replay
// path are a distinct code path worth pinning) and value-based
// re-execution behind the store-vulnerability-window filter. Every policy
// a run key can name is pinned here.
var goldenPolicies = []struct {
	name string
	kind dmdc.PolicyKind
}{
	{"baseline", dmdc.PolicyBaseline},
	{"yla", dmdc.PolicyYLA},
	{"dmdc-global", dmdc.PolicyDMDC},
	{"dmdc-local", dmdc.PolicyDMDCLocal},
	{"agetable", dmdc.PolicyAgeTable},
	{"valuebased", dmdc.PolicyValueBased},
	{"value-svw", dmdc.PolicyValueSVW},
}

// goldenBenchmarks spans the workload classes: two integer benchmarks with
// very different branch/memory behavior, one floating-point benchmark.
var goldenBenchmarks = []string{"gzip", "gcc", "swim"}

// goldenPath returns the fingerprint file for one matrix cell.
func goldenPath(bench, cfg, policy string) string {
	return filepath.Join("testdata", "golden",
		fmt.Sprintf("%s_%s_%s.json", bench, cfg, policy))
}

// fingerprint renders a Result as the canonical golden bytes: indented
// JSON of the full result, which serializes the ordered stat set and the
// complete energy breakdown (sums, event counts, cycles).
func fingerprint(r *dmdc.Result) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// TestGoldenMatrix simulates the benchmark × config × policy matrix and
// compares each cell's full result against its committed fingerprint.
func TestGoldenMatrix(t *testing.T) {
	for _, bench := range goldenBenchmarks {
		for _, cfg := range goldenConfigs() {
			for _, pol := range goldenPolicies {
				bench, cfg, pol := bench, cfg, pol
				name := fmt.Sprintf("%s/%s/%s", bench, cfg.Name, pol.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					r, err := simulate(cfg, bench, pol.kind, goldenInsts)
					if err != nil {
						t.Fatalf("simulate: %v", err)
					}
					got, err := fingerprint(r)
					if err != nil {
						t.Fatalf("fingerprint: %v", err)
					}
					path := goldenPath(bench, cfg.Name, pol.name)
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden fingerprint (run `go test -run Golden -update .`): %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("result diverged from golden fingerprint %s\n%s",
							path, goldenDiff(want, got))
					}
				})
			}
		}
	}
}

// goldenDiff renders a compact line diff of two fingerprints so a failure
// names the exact counters that drifted instead of dumping both files.
func goldenDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	shown := 0
	for i := 0; i < n && shown < 40; i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			fmt.Fprintf(&out, "  line %d:\n    want %s\n    got  %s\n", i+1, w, g)
			shown++
		}
	}
	if shown == 0 {
		return "  (fingerprints differ only in length)"
	}
	return out.String()
}

// TestGoldenTelemetryObserverEffect reruns the entire golden matrix with
// telemetry fully enabled — a fine stride so sampling and stall
// attribution run constantly — and requires every cell's fingerprint to be
// byte-identical to the committed golden file. This is the observer-effect
// contract: instrumentation must never change a committed cycle. The test
// also requires the sampler to have actually observed the run (non-empty
// series ending at the final committed count), so a regression that
// silently detaches telemetry cannot pass as a no-op.
func TestGoldenTelemetryObserverEffect(t *testing.T) {
	for _, bench := range goldenBenchmarks {
		for _, cfg := range goldenConfigs() {
			for _, pol := range goldenPolicies {
				bench, cfg, pol := bench, cfg, pol
				name := fmt.Sprintf("%s/%s/%s", bench, cfg.Name, pol.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					sampler := dmdc.NewTelemetrySampler(dmdc.TelemetryConfig{Stride: 64})
					r, err := simulate(cfg, bench, pol.kind, goldenInsts,
						dmdc.WithTelemetry(sampler))
					if err != nil {
						t.Fatalf("simulate: %v", err)
					}
					got, err := fingerprint(r)
					if err != nil {
						t.Fatalf("fingerprint: %v", err)
					}
					path := goldenPath(bench, cfg.Name, pol.name)
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden fingerprint (run `go test -run Golden -update .`): %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("telemetry changed the simulation: fingerprint diverged from %s\n%s",
							path, goldenDiff(want, got))
					}
					// The sampler must have really been watching.
					sn := sampler.Snapshot()
					if len(sn.Samples) == 0 {
						t.Fatal("telemetry enabled but no samples recorded")
					}
					last := sn.Samples[len(sn.Samples)-1]
					if last.Committed != r.Insts {
						t.Errorf("final sample committed=%d, want %d (flush sample missing?)",
							last.Committed, r.Insts)
					}
					if last.Cycle != r.Cycles {
						t.Errorf("final sample cycle=%d, want %d", last.Cycle, r.Cycles)
					}
					if got := sn.Meta.Benchmark; got != bench {
						t.Errorf("sampler meta benchmark=%q, want %q", got, bench)
					}
				})
			}
		}
	}
}

// TestGoldenMatrixDeterminism double-runs one cell and requires identical
// fingerprints, guarding the premise the golden suite rests on: simulation
// results depend only on (benchmark, config, policy, insts).
func TestGoldenMatrixDeterminism(t *testing.T) {
	t.Parallel()
	run := func() []byte {
		r, err := simulate(dmdc.Config2(), "gcc", dmdc.PolicyDMDC, 20_000)
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		b, err := fingerprint(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("two identical simulations produced different fingerprints")
	}
}
