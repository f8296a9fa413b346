package experiments

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dmdc/internal/core"
)

// faultyBackend runs cells in process through ExecuteJob, except that
// cells of benchmark bad go through fail instead.
type faultyBackend struct {
	bad  string
	fail func(ctx context.Context, spec JobSpec) (*core.Result, error)
}

func (faultyBackend) Name() string { return "faulty" }

func (b faultyBackend) Run(ctx context.Context, spec JobSpec) (*core.Result, error) {
	if spec.Benchmark == b.bad {
		return b.fail(ctx, spec)
	}
	return ExecuteJob(ctx, spec)
}

// TestRunMatrixRecoversPanics: a crashing run — inside the simulation or
// inside the backend itself — must surface as a labeled error, not a
// process crash, and must not discard sibling results.
func TestRunMatrixRecoversPanics(t *testing.T) {
	fails := map[string]func(ctx context.Context, spec JobSpec) (*core.Result, error){
		"simulation": func(ctx context.Context, spec JobSpec) (*core.Result, error) {
			return ExecuteJob(ctx, spec, func(*core.Sim) { panic("cell exploded") })
		},
		"backend": func(context.Context, JobSpec) (*core.Result, error) { panic("cell exploded") },
	}
	for name, fail := range fails {
		t.Run(name, func(t *testing.T) {
			s := mustSuite(Options{Insts: 2000, Benchmarks: []string{"gzip", "swim"},
				Backend: faultyBackend{bad: "swim", fail: fail}})
			key := keyBase("config2")
			out, err := s.runMatrix([]runSpec{s.specFor(key)})
			if err == nil {
				t.Fatal("panicking cell produced no error")
			}
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("error is not a *RunError: %v", err)
			}
			if re.Key != key || re.Benchmark != "swim" {
				t.Errorf("error not labeled with spec key + benchmark: %+v", re)
			}
			if !strings.Contains(err.Error(), "cell exploded") {
				t.Errorf("cause lost: %v", err)
			}
			if out[key][0] == nil {
				t.Error("sibling result discarded")
			}
			if out[key][1] != nil {
				t.Error("failed run produced a result")
			}
		})
	}
}

// TestRunMatrixProgress: progress lines carry completed/total counts.
func TestRunMatrixProgress(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := mustSuite(Options{
		Insts:      1000,
		Benchmarks: []string{"gzip", "swim"},
		Progress: func(l string) {
			mu.Lock()
			lines = append(lines, l)
			mu.Unlock()
		},
	})
	s.get(keyBase("config2"))
	if len(lines) != 2 {
		t.Fatalf("got %d progress lines, want 2: %q", len(lines), lines)
	}
	counted := regexp.MustCompile(`^\[\d+/2\] (sim|hit)`)
	seenFinal := false
	for _, l := range lines {
		if !counted.MatchString(l) {
			t.Errorf("malformed progress line %q", l)
		}
		if strings.HasPrefix(l, "[2/2]") {
			seenFinal = true
		}
	}
	if !seenFinal {
		t.Errorf("no final [2/2] line in %q", lines)
	}
}

// TestSuiteErrSticky: runner errors accumulate on the suite, surface
// through Err, and leave sibling results usable.
func TestSuiteErrSticky(t *testing.T) {
	s := mustSuite(Options{Insts: 1000, Benchmarks: []string{"gzip"}})
	// Bypass NewSuite validation to exercise the runner's own guard
	// against unknown benchmarks (the old code path panicked here).
	s.opts.Benchmarks = []string{"gzip", "no-such-bench"}
	rs := s.Results(keyBase("config2"))
	err := s.Err()
	if err == nil {
		t.Fatal("unknown benchmark produced no suite error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RunError: %v", err)
	}
	if re.Key != keyBase("config2") || re.Benchmark != "no-such-bench" {
		t.Errorf("error not labeled: %+v", re)
	}
	if len(rs) != 2 || rs[0] == nil {
		t.Error("healthy benchmark's result discarded")
	}
	if rs[1] != nil {
		t.Error("failed benchmark produced a result")
	}
}
