package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
	"dmdc/internal/trace"
)

func mustFaultSpec(t *testing.T, s string) soundness.FaultSpec {
	t.Helper()
	spec, err := soundness.ParseFaultSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// arenaSim builds a gcc/DMDC sim on machine m, drawing its storage from a
// when a is non-nil and from fresh allocations otherwise.
func arenaSim(t *testing.T, a *Arena, m config.Machine) *Sim {
	t.Helper()
	prof, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(m.CoreSize())
	pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(m.CheckTable, m.ROBSize), em))
	var opts []Option
	if a != nil {
		opts = append(opts, WithArena(a))
	}
	return MustSim(New(m, prof, pol, em, opts...))
}

// runFor runs s for n committed instructions.
func runFor(t *testing.T, s *Sim, n uint64) *Result {
	t.Helper()
	r, err := s.RunContext(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Runs on a dirtied, reused arena must be bit-identical to runs on fresh
// allocations: ensure returns every slot to its freshly allocated state.
// Each case runs its steps in order on one arena and compares every step
// against the same step on fresh allocations — including reuse across
// machines of different ROB sizes, and a checkpoint saved and restored on
// a dirtied arena (a checkpoint serializes dead slots too).
func TestArenaReuseDeterminism(t *testing.T) {
	const n = 30_000
	run := func(m config.Machine) func(*testing.T, *Arena) *Result {
		return func(t *testing.T, a *Arena) *Result { return runFor(t, arenaSim(t, a, m), n) }
	}
	var freshBlob []byte
	restore := func(t *testing.T, a *Arena) *Result {
		src := arenaSim(t, a, config.Config2())
		if err := src.FastForward(20_000, true); err != nil {
			t.Fatal(err)
		}
		blob, err := src.SaveCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			freshBlob = blob
		} else if !bytes.Equal(blob, freshBlob) {
			t.Fatal("checkpoint saved on a reused arena differs from one saved on fresh allocations")
		}
		dst := arenaSim(t, a, config.Config2())
		if err := dst.RestoreCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
		return runFor(t, dst, 10_000)
	}
	cases := []struct {
		name  string
		steps []func(*testing.T, *Arena) *Result
	}{
		{"same machine", []func(*testing.T, *Arena) *Result{
			run(config.Config2()), run(config.Config2()), run(config.Config2())}},
		{"cross machine", []func(*testing.T, *Arena) *Result{
			run(config.Config3()), run(config.Config1()), run(config.IQPressure())}},
		{"checkpoint restore", []func(*testing.T, *Arena) *Result{
			run(config.Config3()), restore, restore}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewArena()
			for step, f := range c.steps {
				want, r := f(t, nil), f(t, a)
				if r.Cycles != want.Cycles || r.Insts != want.Insts {
					t.Fatalf("arena step %d: got %d cycles / %d insts, want %d / %d",
						step, r.Cycles, r.Insts, want.Cycles, want.Insts)
				}
				if got, w := r.Stats.String(), want.Stats.String(); got != w {
					t.Fatalf("arena step %d stats diverged:\ngot  %s\nwant %s", step, got, w)
				}
				if got, w := r.Energy.Total(), want.Energy.Total(); got != w {
					t.Fatalf("arena step %d energy: got %v, want %v", step, got, w)
				}
			}
		})
	}
}

// A reused arena must also replay fault campaigns identically — squashes,
// replays, and wrong-path churn exercise every queue reset path.
func TestArenaReuseDeterminismUnderFaults(t *testing.T) {
	run := func(a *Arena) *Result {
		cfg := config.Config2()
		prof, err := trace.ByName("parser")
		if err != nil {
			t.Fatal(err)
		}
		em := energy.NewModel(cfg.CoreSize())
		pol := lsq.Must(lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.ROBSize}, em))
		opts := []Option{WithFaults(mustFaultSpec(t, "alias=8192,spurious=101"))}
		if a != nil {
			opts = append(opts, WithArena(a))
		}
		s := MustSim(New(cfg, prof, pol, em, opts...))
		r, err := s.RunContext(context.Background(), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(nil)
	a := NewArena()
	run(a)
	got := run(a)
	if got.Cycles != want.Cycles || got.Stats.String() != want.Stats.String() {
		t.Fatalf("faulted arena rerun diverged: got %d cycles, want %d", got.Cycles, want.Cycles)
	}
}

// A Sim whose run failed must refuse to continue: the pipeline is
// mid-cycle and stepping it again would silently produce garbage.
func TestRunAfterErrorIsPoisoned(t *testing.T) {
	cfg := config.Config2()
	prof, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em))
	s := MustSim(New(cfg, prof, pol, em))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // noticed at the first cancellation poll
	if _, err := s.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: got %v, want context.Canceled", err)
	}

	_, err = s.RunContext(context.Background(), 100)
	var pe *PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("reuse after cancel: got %v, want *PoisonedError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned error should wrap the original cause, got %v", err)
	}
	// Poisoning is sticky and keeps reporting the first failure.
	if _, err2 := s.RunContext(context.Background(), 100); !errors.Is(err2, context.Canceled) {
		t.Fatalf("second reuse: got %v, want wrapped context.Canceled", err2)
	}
}

// A clean return does not poison: incremental runs stay supported.
func TestIncrementalRunsStillAllowed(t *testing.T) {
	cfg := config.Config2()
	prof, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	em := energy.NewModel(cfg.CoreSize())
	pol := lsq.Must(lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em))
	s := MustSim(New(cfg, prof, pol, em))
	r1 := s.MustRun(5_000)
	r2 := s.MustRun(5_000)
	if r2.Insts != r1.Insts+5_000 {
		t.Fatalf("incremental run: got %d insts after second run, want %d", r2.Insts, r1.Insts+5_000)
	}
}
