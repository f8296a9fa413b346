package dmdc_test

import (
	"context"
	"testing"

	"dmdc"
	"dmdc/internal/experiments"
)

// TestAllocationBudget is the `make check` gate (alloc-gate target) that
// keeps the simulator's hot loop allocation-free on every entry point that
// builds a simulation. A warm run's remaining allocations are per-run
// construction — cache hierarchy, branch predictor, policy, stats — not
// per-instruction or per-cycle work; the SoA/arena refactor drove
// BenchmarkSimBaseline from ~7.8k allocs/op to under a hundred. Each
// ceiling is set loose enough for Go version drift in map/slice growth but
// far below what any per-dispatch or per-event allocation regression would
// produce (each costs tens of thousands per run), and far below a run that
// misses the pooled arena.
func TestAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is load-sensitive; skipped in -short")
	}
	ctx := context.Background()
	job := func(spec experiments.JobSpec) func() error {
		return func() error {
			_, err := experiments.ExecuteJob(ctx, spec)
			return err
		}
	}
	cases := []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"dmdc.Run", 500, func() error {
			_, err := simulate(dmdc.Config2(), "gcc", dmdc.PolicyDMDC, 5_000)
			return err
		}},
		{"ExecuteJob policy", 150, job(experiments.JobSpec{
			Machine: dmdc.Config2(), Policy: "dmdc", Benchmark: "gcc", Insts: 50_000})},
		{"ExecuteJob run key", 150, job(experiments.JobSpec{
			RunKey: "dmdc-global-config2", Benchmark: "gcc", Insts: 50_000})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func() {
				if err := c.run(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the arena pool and the CFG template cache
			if got := testing.AllocsPerRun(10, run); got > c.budget {
				t.Fatalf("allocations per run = %.0f, budget %.0f — a hot-path allocation crept back in", got, c.budget)
			}
		})
	}
}
