package main

import (
	"context"
	"fmt"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// runPaperColumn runs one benchmark's full report column: Suite.Report()
// restricted to that benchmark, one simulation at a time, no result cache.
// It returns the raw results of every run key.
func runPaperColumn(ctx context.Context, bench string, insts uint64, progress func(string)) (map[string][]*core.Result, int, error) {
	s, err := experiments.NewSuite(experiments.Options{
		Insts: insts, Parallelism: 1, Benchmarks: []string{bench}, Progress: progress, Context: ctx,
	})
	if err != nil {
		return nil, 0, err
	}
	if s.Report() == "" {
		return nil, 0, fmt.Errorf("paper-matrix %s: empty report", bench)
	}
	if err := s.Err(); err != nil {
		return nil, 0, err
	}
	out := map[string][]*core.Result{}
	for _, k := range experiments.RunKeys() {
		out[k] = s.Results(k)
	}
	return out, int(s.Simulated()), nil
}

// runPaper measures paper-matrix: each op is one report column (36
// simulations at the golden 50k-instruction budget).
func runPaper(ctx context.Context, pn *pins, plan []string, cfg passConfig) (*pass, error) {
	p := newPass()
	// Set-up is one column (the same for every seed, so its cost does not
	// vary with the plan) at a tenth of the budget: it pays the
	// workload-profile, CFG-template and allocator warm-up an op would
	// otherwise pay first.
	setup := func() (func(), error) {
		_, _, err := runPaperColumn(ctx, benchmarks[0], paperInsts/10, nil)
		return nil, err
	}
	if err := p.timeSetup(cfg.setupReps, true, setup); err != nil {
		return nil, fmt.Errorf("paper-matrix set-up: %w", err)
	}

	results := make([]map[string][]*core.Result, len(plan))
	errs := make([]error, len(plan))
	var cellMS []float64
	ran := p.measure(cfg, len(plan), 1, func(i int) opSample {
		t0 := cfg.now()
		last := t0
		progress := func(string) {
			t := cfg.now()
			cellMS = append(cellMS, ms(t.Sub(last)))
			last = t
		}
		res, sims, err := runPaperColumn(ctx, plan[i], paperInsts, progress)
		dt := cfg.now().Sub(t0)
		results[i], errs[i] = res, err
		p.sims += sims
		var insts uint64
		for _, rs := range res {
			for _, r := range rs {
				insts += r.Insts
			}
		}
		return opSample{MS: ms(dt), Insts: insts}
	})
	p.jobMS = cellMS
	if err := p.timeSetup(cfg.setupAfter, false, setup); err != nil {
		return nil, fmt.Errorf("paper-matrix set-up: %w", err)
	}

	var opMS, cycles float64
	var acc modelAcc
	for i, did := range ran {
		if !did {
			continue
		}
		err := errs[i]
		if err == nil {
			err = checkPaper(pn, plan[i], results[i], &acc)
		}
		p.tally.record(err)
		for _, rs := range results[i] {
			for _, r := range rs {
				cycles += float64(r.Cycles)
			}
		}
	}
	for _, o := range p.ops {
		opMS += o.MS
	}
	p.modelBlock = acc.stats()
	p.layer["experiments.cell_ms_p50"] = percentile(cellMS, 50)
	p.layer["core.host_ns_per_sim_cycle"] = ratio(opMS*1e6, cycles)
	p.layer["experiments.sims_per_op"] = ratio(float64(p.sims), float64(len(p.ops)))
	return p, nil
}

// checkPaper verifies one column against its pins and adds its model
// counters to acc.
func checkPaper(pn *pins, bench string, res map[string][]*core.Result, acc *modelAcc) error {
	pin := pn.Paper[bench]
	d, err := paperDigest(res)
	if err != nil {
		return err
	}
	if d != pin.Digest {
		return fmt.Errorf("paper-matrix %s: results digest %s, pinned %s", bench, d, pin.Digest)
	}
	var a modelAcc
	for _, rs := range res {
		for _, r := range rs {
			a.add(r)
		}
	}
	if got := a.stats(); got != pin.Model {
		return fmt.Errorf("paper-matrix %s: model %+v, pinned %+v", bench, got, pin.Model)
	}
	acc.merge(a)
	return nil
}
