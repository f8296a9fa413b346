package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/core"
	"dmdc/internal/energy"
	"dmdc/internal/trace"
)

// jobInsts keeps wire-job cells quick but non-trivial.
const jobInsts = 20_000

// mustJSON fingerprints a result for byte-identity comparison.
func mustJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestExecuteJobMatchesSuiteCell ships matrix cells through the wire-job
// path and requires byte-identical results to the Suite's in-process
// runner — including keys whose specs carry monitors (monitored-baseline)
// and injection options (dmdc-inv10), the cases where a construction-order
// slip would silently change behavior.
func TestExecuteJobMatchesSuiteCell(t *testing.T) {
	t.Parallel()
	keys := []string{"dmdc-global-config2", "monitored-baseline", "dmdc-inv10"}
	bench := "gcc"
	s, err := NewSuite(Options{Insts: jobInsts, Benchmarks: []string{bench}})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	local := s.get(keys...)
	if err := s.Err(); err != nil {
		t.Fatalf("suite: %v", err)
	}
	for _, key := range keys {
		res := local[key]
		if len(res) != 1 || res[0] == nil {
			t.Fatalf("suite produced no result for %s", key)
		}
		spec := JobSpec{RunKey: key, Benchmark: bench, Insts: jobInsts}
		// The wire form must survive a JSON round trip unchanged.
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal spec: %v", err)
		}
		var back JobSpec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal spec: %v", err)
		}
		remote, err := ExecuteJob(context.Background(), back)
		if err != nil {
			t.Fatalf("ExecuteJob(%s): %v", key, err)
		}
		if got, want := mustJSON(t, remote), mustJSON(t, res[0]); got != want {
			t.Errorf("wire job %s/%s diverged from suite cell", key, bench)
		}
	}
}

// TestExecuteJobPolicyForm exercises the Policy (machine-carrying) job
// form against the same policy built directly on fresh allocations.
func TestExecuteJobPolicyForm(t *testing.T) {
	t.Parallel()
	m := config.Config1()
	spec := JobSpec{Machine: m, Policy: "yla", Benchmark: "swim", Insts: jobInsts}
	got, err := ExecuteJob(context.Background(), spec)
	if err != nil {
		t.Fatalf("ExecuteJob: %v", err)
	}
	prof, err := trace.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(m.CoreSize())
	pol, err := YLAFactory(m, em)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MustSim(core.New(m, prof, pol, em)).RunContext(context.Background(), jobInsts)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("policy-form job diverged from direct execution")
	}
}

// TestCacheKeyPins pins the content addresses of representative specs to
// literal values. Job IDs, journals and peer caches are addressed by these
// keys, so a change to their derivation orphans every stored result.
func TestCacheKeyPins(t *testing.T) {
	t.Parallel()
	m := config.Config2()
	policy := JobSpec{Machine: m, Policy: "dmdc", Benchmark: "gcc", Insts: 50_000}
	watchdog := policy
	watchdog.WatchdogCycles = 5000 // not part of the address
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"policy", policy, "ba4181a55e08380c00ea1ef6bb141757f175ff027bd618737787c15ffc6b8588"},
		{"run key", JobSpec{RunKey: "dmdc-global-config2", Benchmark: "gcc", Insts: 50_000},
			"4cf2cb78b84638d23dc1d6d99ecd74792a043eb9f51286b35cd9cdc424766940"},
		{"faulted", JobSpec{Machine: m, Policy: "baseline", Benchmark: "parser", Insts: 20_000,
			Faults: "alias=8192,spurious=101"},
			"c52b86bc7be8170420f0d03912cb56ba589ab7866088279190f93d5fad96666e"},
		{"checkpoint ref", JobSpec{Machine: m, Policy: "dmdc", Benchmark: "gcc", Insts: 10_000,
			CheckpointRef: "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881"},
			"4526270c849df2fdf853dfce054d8865b5aba93587735893eed1c1633a1031a3"},
		{"watchdog", watchdog, "ba4181a55e08380c00ea1ef6bb141757f175ff027bd618737787c15ffc6b8588"},
	}
	for _, c := range cases {
		if got := c.spec.CacheKey(); got != c.want {
			t.Errorf("%s: CacheKey() = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestJobSpecValidate sweeps the rejection cases.
func TestJobSpecValidate(t *testing.T) {
	t.Parallel()
	m := config.Config2()
	good := JobSpec{Machine: m, Policy: "dmdc", Benchmark: "gcc", Insts: 1000}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// A checkpoint job without the refused options validates (the payload
	// is hash-checked only when the job runs).
	ckpt := good
	ckpt.Checkpoint, ckpt.CheckpointRef = []byte{1}, "ref"
	if err := ckpt.Validate(); err != nil {
		t.Fatalf("valid checkpoint spec rejected: %v", err)
	}
	withCkpt := func(mut func(*JobSpec)) JobSpec {
		j := ckpt
		mut(&j)
		return j
	}
	cases := map[string]JobSpec{
		"both key and policy":  {Machine: m, RunKey: "yla-config2", Policy: "dmdc", Benchmark: "gcc", Insts: 1000},
		"neither key nor pol":  {Machine: m, Benchmark: "gcc", Insts: 1000},
		"unknown run key":      {RunKey: "no-such-key", Benchmark: "gcc", Insts: 1000},
		"unknown policy":       {Machine: m, Policy: "no-such-policy", Benchmark: "gcc", Insts: 1000},
		"machine mismatch":     {Machine: config.Config1(), RunKey: "yla-config2", Benchmark: "gcc", Insts: 1000},
		"no benchmark":         {Machine: m, Policy: "dmdc", Insts: 1000},
		"unknown benchmark":    {Machine: m, Policy: "dmdc", Benchmark: "nope", Insts: 1000},
		"no instruction count": {Machine: m, Policy: "dmdc", Benchmark: "gcc"},
		"bad fault spec":       {Machine: m, Policy: "dmdc", Benchmark: "gcc", Insts: 1000, Faults: "zzz=1"},
		"checkpoint w/o ref":   withCkpt(func(j *JobSpec) { j.CheckpointRef = "" }),
		"checkpoint soundness": withCkpt(func(j *JobSpec) { j.Soundness = true }),
		"checkpoint faults":    withCkpt(func(j *JobSpec) { j.Faults = "spurious=97" }),
		"checkpoint watchdog":  withCkpt(func(j *JobSpec) { j.WatchdogCycles = 5000 }),
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestJobCacheKeyMatchesSuite pins the idempotency contract: a wire job's
// content address equals the address the Suite uses for the same cell, so
// local and remote results share one cache namespace.
func TestJobCacheKeyMatchesSuite(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	bench := "gzip"
	s, err := NewSuite(Options{Insts: jobInsts, Benchmarks: []string{bench}, CacheDir: dir})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	key := "baseline-config2"
	s.get(key)
	if err := s.Err(); err != nil {
		t.Fatalf("suite: %v", err)
	}
	spec := JobSpec{RunKey: key, Benchmark: bench, Insts: jobInsts}
	if hit, ok := s.cache.Get(spec.CacheKey()); !ok {
		t.Fatal("wire job's cache key missed the suite's cached result")
	} else if hit == nil {
		t.Fatal("cache returned nil result")
	}
	// Distinct policy jobs must land in a reserved namespace that can
	// never collide with run keys.
	pspec := JobSpec{Machine: config.Config2(), Policy: "baseline", Benchmark: bench, Insts: jobInsts}
	if pspec.CacheKey() == spec.CacheKey() {
		t.Fatal("policy job collided with run-key job in the cache namespace")
	}
}

// TestSuiteContextCancel runs a matrix under an already-canceled context:
// every cell must be labeled with context.Canceled in Suite.Err, and no
// simulation may execute.
func TestSuiteContextCancel(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSuite(Options{Insts: jobInsts, Benchmarks: []string{"gcc", "swim"}, Context: ctx})
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	s.get("dmdc-global-config2")
	err = s.Err()
	if err == nil {
		t.Fatal("canceled suite reported no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("suite error %v, want context.Canceled", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("suite error %v lacks per-cell RunError labels", err)
	}
	if got := s.Simulated(); got != 0 {
		t.Fatalf("canceled suite executed %d simulations, want 0", got)
	}
}

// TestPolicyFactoryTable pins that every canonical name resolves and the
// list stays in sync with the table.
func TestPolicyFactoryTable(t *testing.T) {
	t.Parallel()
	for _, name := range PolicyNames() {
		if _, err := PolicyFactoryByName(name); err != nil {
			t.Errorf("PolicyFactoryByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyFactoryByName("bogus"); err == nil {
		t.Error("unknown policy name accepted")
	}
}
