package main

import (
	"bytes"
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"dmdc/internal/experiments"
)

// clock is the time source the measuring loop reads; tests substitute a
// slowed one to show the op sequence does not depend on it.
type clock func() time.Time

// passConfig shapes one measured pass over a plan.
type passConfig struct {
	now clock
	// limit is the hard cap on measuring time. A plan sized for the
	// requested seconds finishes far inside it; it exists only so a
	// pathologically slow host still exits before the run deadline.
	limit time.Duration
	// setupReps is how many times set-up runs before measuring; the last
	// one serves the pass. setupAfter more run after measuring, so the
	// set-ups behind setup_s (their median) sample more than one moment of
	// a noisy host.
	setupReps, setupAfter int
	// traced attaches the CPU profile and the layer wrappers.
	traced bool
}

// opSample is one executed op.
type opSample struct {
	MS    float64
	Insts uint64 // committed instructions covered by the op's results
	// End is when the op completed, measured from the start of the pass.
	End time.Duration
}

// pass is one measured execution of a workload's plan.
type pass struct {
	setupS  []float64
	elapsed time.Duration
	ops     []opSample // executed ops, in plan order
	// jobMS holds one latency per simulation job delivered (a dmdcd
	// request, a matrix cell, a sampled interval): job_ms_p90.
	jobMS []float64
	tally tally
	// modelBlock is the simulated statistics of the pass's verified
	// results (see modelStats).
	modelBlock modelStats
	// cut marks a plan stopped by the hard cap.
	cut bool
	// sims counts simulations executed in the pass.
	sims int
	// layer holds the per-layer figures a workload gathers itself.
	layer map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string

	tr *tracer
}

func newPass() *pass { return &pass{layer: map[string]float64{}} }

// timeSetup runs set-up reps times, recording each duration. Every rep is
// torn down at once except, with keepLast, the last one.
func (p *pass) timeSetup(reps int, keepLast bool, setup func() (teardown func(), err error)) error {
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if (r < reps-1 || !keepLast) && teardown != nil {
			teardown()
		}
	}
	return nil
}

// measure executes ops 0..n-1 on `clients` closed-loop clients: client c
// issues ops c, c+clients, c+2·clients, ... each after the previous reply.
// The assignment is static, so what every client sends depends on the plan
// alone. A client stops issuing once cfg.limit has passed. It returns which
// plan positions ran, for the workload's checks after the timed region.
func (p *pass) measure(cfg passConfig, n, clients int, exec func(i int) opSample) []bool {
	if cfg.traced {
		p.tr = startTracer()
	}
	samples := make([]opSample, n)
	ran := make([]bool, n)
	start := cfg.now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if cfg.now().Sub(start) > cfg.limit {
					return
				}
				samples[i] = exec(i)
				samples[i].End = cfg.now().Sub(start)
				ran[i] = true
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = cfg.now().Sub(start)
	if p.tr != nil {
		p.tr.stop()
	}
	for i := range samples {
		if ran[i] {
			p.ops = append(p.ops, samples[i])
		} else {
			p.cut = true
		}
	}
	return ran
}

// blockRates splits the pass into n blocks of equally many ops, in order of
// completion, and returns each block's committed instructions per second.
func (p *pass) blockRates(n int) []float64 {
	ops := append([]opSample(nil), p.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].End < ops[j].End })
	if len(ops) < n {
		return nil
	}
	var rates []float64
	var prevEnd time.Duration
	for b := 0; b < n; b++ {
		lo, hi := b*len(ops)/n, (b+1)*len(ops)/n
		var insts uint64
		for _, o := range ops[lo:hi] {
			insts += o.Insts
		}
		end := ops[hi-1].End
		rates = append(rates, ratio(float64(insts), (end-prevEnd).Seconds()))
		prevEnd = end
	}
	return rates
}

func (p *pass) insts() uint64 {
	var n uint64
	for _, o := range p.ops {
		n += o.Insts
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tracer holds the traced pass's CPU profile and runtime-metric baseline.
type tracer struct {
	prof    bytes.Buffer
	before  []metrics.Sample
	after   []metrics.Sample
	profErr error
}

// runtimeMetrics are read before and after the traced pass; the m*
// constants index them.
var runtimeMetrics = []string{
	mGCCPU:      "/cpu/classes/gc/total:cpu-seconds",
	mTotalCPU:   "/cpu/classes/total:cpu-seconds",
	mAllocObjs:  "/gc/heap/allocs:objects",
	mAllocBytes: "/gc/heap/allocs:bytes",
}

const (
	mGCCPU = iota
	mTotalCPU
	mAllocObjs
	mAllocBytes
)

func readMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func startTracer() *tracer {
	t := &tracer{before: readMetrics()}
	t.profErr = pprof.StartCPUProfile(&t.prof)
	return t
}

func (t *tracer) stop() {
	if t.profErr == nil {
		pprof.StopCPUProfile()
	}
	t.after = readMetrics()
}

// delta returns the change of runtime metric i over the traced pass.
func (t *tracer) delta(i int) float64 {
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return value(t.after[i]) - value(t.before[i])
}

// constructUS is the median host time of ExecuteJob at a one-instruction
// budget: spec validation, policy and simulator construction, teardown.
func constructUS(ctx context.Context) (float64, error) {
	spec := experiments.JobSpec{Machine: machine("config2"), Policy: "dmdc", Benchmark: "gcc", Insts: 1}
	var us []float64
	for i := 0; i < 41; i++ {
		t0 := time.Now()
		if _, err := experiments.ExecuteJob(ctx, spec); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return percentile(us, 50), nil
}
