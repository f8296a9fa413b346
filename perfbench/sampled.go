package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// intervalTimer is an experiments.Backend that runs each interval job in
// process, exactly as a nil SampleSpec.Backend would, and times it.
type intervalTimer struct {
	now clock

	mu        sync.Mutex
	ms        []float64
	ckptBytes int
	results   map[string]*core.Result // by checkpoint ref
}

func (t *intervalTimer) Name() string { return "perfbench-interval-timer" }

func (t *intervalTimer) Run(ctx context.Context, spec experiments.JobSpec) (*core.Result, error) {
	t0 := t.now()
	r, err := experiments.ExecuteJob(ctx, spec)
	d := t.now().Sub(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ms = append(t.ms, ms(d))
	t.ckptBytes += len(spec.Checkpoint)
	if err == nil {
		t.results[spec.CheckpointRef] = r
	}
	return r, err
}

// sampledOp is one executed sampled run with what its checks need.
type sampledOp struct {
	res   *experiments.SampledResult
	last  *core.Result // the final interval's result
	err   error
	ivMS  float64 // time inside interval jobs
	bytes int     // checkpoint bytes shipped
}

// runSampled measures sampled: each op is one RunSampled logical run of
// 5M instructions as 20 detailed 10k-instruction intervals.
func runSampled(ctx context.Context, pn *pins, plan []int, cfg passConfig) (*pass, error) {
	p := newPass()
	// Set-up is a short sampled run of the first cell (the same for every
	// seed): checkpoint encoding, restore and both simulators warm up
	// before the first op.
	setup := func() (func(), error) {
		sp := sampledCells[0].spec()
		sp.Job.Insts, sp.Intervals = 400_000, 4
		_, err := experiments.RunSampled(ctx, sp)
		return nil, err
	}
	if err := p.timeSetup(cfg.setupReps, true, setup); err != nil {
		return nil, fmt.Errorf("sampled set-up: %w", err)
	}

	ops := make([]sampledOp, len(plan))
	ran := p.measure(cfg, len(plan), 1, func(i int) opSample {
		timer := &intervalTimer{now: cfg.now, results: map[string]*core.Result{}}
		sp := sampledCells[plan[i]].spec()
		sp.Backend = timer
		t0 := cfg.now()
		res, err := experiments.RunSampled(ctx, sp)
		dt := cfg.now().Sub(t0)
		op := sampledOp{res: res, err: err, bytes: timer.ckptBytes}
		for _, m := range timer.ms {
			op.ivMS += m
		}
		p.jobMS = append(p.jobMS, timer.ms...)
		if err == nil && len(res.Intervals) > 0 {
			op.last = timer.results[res.Intervals[len(res.Intervals)-1].CheckpointRef]
		}
		ops[i] = op
		var insts uint64
		if err == nil {
			insts = res.TotalInsts
		}
		return opSample{MS: ms(dt), Insts: insts}
	})

	if err := p.timeSetup(cfg.setupAfter, false, setup); err != nil {
		return nil, fmt.Errorf("sampled set-up: %w", err)
	}

	var errPct, opMS, ivMS, ivCycles, bytes float64
	cellModel := make([]*modelStats, len(sampledCells))
	k := 0 // position in p.ops, which holds the executed ops in plan order
	for i, did := range ran {
		if !did {
			continue
		}
		op := ops[i]
		err := op.err
		if err == nil {
			var m modelStats
			var e float64
			m, e, err = checkSampled(pn.Sampled[plan[i]], op)
			if err == nil {
				errPct += e
				cellModel[plan[i]] = &m
			}
		}
		p.tally.record(err)
		opMS += p.ops[k].MS
		k++
		ivMS += op.ivMS
		bytes += float64(op.bytes)
		if op.res != nil {
			ivCycles += float64(op.res.MeasuredCycles)
		}
	}
	// The run's model block is the mean over the cells verified, in cell
	// order, so equal plans give bit-equal blocks.
	var ok int
	for _, m := range cellModel {
		if m != nil {
			p.modelBlock.IPC += m.IPC
			p.modelBlock.ReplaysPerKInst += m.ReplaysPerKInst
			p.modelBlock.LQSearchesPerKInst += m.LQSearchesPerKInst
			p.modelBlock.L1DMissRate += m.L1DMissRate
			p.modelBlock.MispredictRate += m.MispredictRate
			ok++
		}
	}
	if ok > 0 {
		w := float64(ok)
		p.modelBlock.IPC /= w
		p.modelBlock.ReplaysPerKInst /= w
		p.modelBlock.LQSearchesPerKInst /= w
		p.modelBlock.L1DMissRate /= w
		p.modelBlock.MispredictRate /= w
	}
	errPct = ratio(errPct, float64(p.tally.ok))
	p.sims = k * sampledIntervals
	p.layer["experiments.est_err_pct"] = errPct
	p.layer["experiments.interval_ms_p50"] = percentile(p.jobMS, 50)
	p.layer["experiments.ff_frac"] = ratio(opMS-ivMS, opMS)
	p.layer["checkpoint.bytes_per_interval"] = ratio(bytes, float64(p.sims))
	p.layer["core.host_ns_per_sim_cycle"] = ratio(ivMS*1e6, ivCycles)
	p.layer["experiments.sims_per_op"] = sampledIntervals
	p.notes = append(p.notes, fmt.Sprintf("est_err_pct %.4f %% (mean |estimated-full|/full over %d ops, simulated)", errPct, p.tally.ok))
	return p, nil
}

// checkSampled verifies one sampled run against its cell's pins and
// returns its model block and estimate error in percent.
func checkSampled(pin sampledPin, op sampledOp) (modelStats, float64, error) {
	d, _, err := digest(op.res)
	if err != nil {
		return modelStats{}, 0, err
	}
	if d != pin.Digest {
		return modelStats{}, 0, fmt.Errorf("sampled %+v: result digest %s, pinned %s", pin.sampledCell, d, pin.Digest)
	}
	if op.last == nil {
		return modelStats{}, 0, fmt.Errorf("sampled %+v: final interval result missing", pin.sampledCell)
	}
	m := sampledModel(op.res, op.last)
	if m != pin.Model {
		return modelStats{}, 0, fmt.Errorf("sampled %+v: model %+v, pinned %+v", pin.sampledCell, m, pin.Model)
	}
	full := float64(pin.FullCycles)
	return m, 100 * math.Abs(float64(op.res.EstimatedCycles)-full) / full, nil
}

// sampledModel is a sampled run's model block: IPC and replays over the
// detailed intervals; LQ, cache and predictor rates from the final
// interval's cumulative counters, which cover the warmed fast-forward too.
func sampledModel(res *experiments.SampledResult, last *core.Result) modelStats {
	var a modelAcc
	a.add(last)
	m := a.stats()
	m.IPC = ratio(float64(res.MeasuredInsts), float64(res.MeasuredCycles))
	m.ReplaysPerKInst = res.ReplaysPerKInst
	return m
}
