package main

import (
	"fmt"
	"math/rand"
	"sort"

	"dmdc/internal/config"
	"dmdc/internal/experiments"
)

// The op plan of a run is a function of (seed, seconds) and of the pinned
// files only. It never reads the clock, so a slow host runs the same ops
// in the same order as a fast one and the op mix — and with it every
// percentile — cannot shift with host speed. The nominal costs below size
// a plan to fill roughly the requested seconds on a 2-vCPU Xeon host; they
// are constants, not measurements.
const (
	// paperRoundS is the nominal cost of one paper-matrix round (7
	// report columns of 36 simulations at 50k instructions).
	paperRoundS = 10.0
	// sampledRoundS is the nominal cost of one sampled round (the four
	// cells once each, 5M logical instructions per cell).
	sampledRoundS = 4.2
	// serviceRoundsPerS is the nominal number of service-mix rounds (three
	// warm requests and one cold one) completed per second.
	serviceRoundsPerS = 160.0
)

// benchmarks is the synthetic SPEC2000 suite, in suite order. It is fixed
// here rather than read from the simulator so the benchmark's inputs only
// change when this file does.
var benchmarks = []string{
	"gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk", "gap",
	"vortex", "bzip2", "twolf", "wupwise", "swim", "mgrid", "applu", "mesa",
	"galgel", "art", "equake", "facerec", "ammp", "lucas", "fma3d", "sixtrack",
	"apsi",
}

// Paper-matrix shape: the golden budget, one simulation at a time.
const paperInsts = 50_000

// Sampled shape: the 5M-instruction acceptance run as 20 detailed
// intervals of 10k instructions.
const (
	sampledInsts         = 5_000_000
	sampledIntervals     = 20
	sampledIntervalInsts = 10_000
)

// sampledCell is one (benchmark, machine, policy) sampled run.
type sampledCell struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	Policy    string `json:"policy"`
}

// sampledCells are the cells of the repository's pinned sampled-error
// matrix: two INT cells (biased low) and two FP cells.
var sampledCells = []sampledCell{
	{"gzip", "config1", "baseline"},
	{"gcc", "config2", "dmdc"},
	{"swim", "config1", "dmdc"},
	{"mcf", "config2", "baseline"},
}

func (c sampledCell) spec() experiments.SampleSpec {
	return experiments.SampleSpec{
		Job: experiments.JobSpec{
			Machine: machine(c.Config), Policy: c.Policy, Benchmark: c.Benchmark, Insts: sampledInsts,
		},
		Intervals:     sampledIntervals,
		IntervalInsts: sampledIntervalInsts,
		Parallelism:   1,
	}
}

// Service-mix universe: every (benchmark, machine, policy) at a few
// instruction budgets just above 5k. Each spec is a distinct
// content-addressed job, so a run can draw thousands of never-seen ones.
var (
	serviceConfigs  = []string{"config1", "config2", "config3"}
	servicePolicies = []string{"baseline", "yla", "dmdc", "dmdc-local", "agetable", "value-based", "value-svw"}
)

const (
	serviceBaseInsts = 5_000
	serviceVariants  = 16
	// serviceCorpus is the number of warm specs a run repeats.
	serviceCorpus = 48
	// roundLen fixes the 75/25 warm/cold mix: each round of four requests
	// holds exactly one cold one.
	roundLen = 4
)

func universeSize() int {
	return serviceVariants * len(benchmarks) * len(serviceConfigs) * len(servicePolicies)
}

// universeSpec maps a universe index to its job.
func universeSpec(i int) experiments.JobSpec {
	p := i % len(servicePolicies)
	i /= len(servicePolicies)
	c := i % len(serviceConfigs)
	i /= len(serviceConfigs)
	b := i % len(benchmarks)
	v := i / len(benchmarks)
	return experiments.JobSpec{
		Machine:   machine(serviceConfigs[c]),
		Policy:    servicePolicies[p],
		Benchmark: benchmarks[b],
		Insts:     serviceBaseInsts + uint64(v),
	}
}

func machine(name string) config.Machine {
	switch name {
	case "config1":
		return config.Config1()
	case "config3":
		return config.Config3()
	}
	return config.Config2()
}

// rounds converts a time budget into a whole number of rounds, at least one.
func rounds(seconds float64, perRoundS float64) int {
	n := int(seconds/perRoundS + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// paperGroup is how many benchmarks of similar cost share one slot of a
// paper-matrix round.
const paperGroup = 4

// paperPlan returns the benchmark columns one paper-matrix run reports, in
// order. The 26 benchmarks are grouped by pinned column cost, four to a
// group (the costliest two form the last group); each round takes one
// benchmark of every group, so any two seeds run nearly the same amount of
// work with the same cost spread while the seed still decides which
// benchmarks run and in what order.
func paperPlan(seed int64, seconds float64, costMS map[string]float64) []string {
	byCost := append([]string(nil), benchmarks...)
	sort.SliceStable(byCost, func(i, j int) bool { return costMS[byCost[i]] < costMS[byCost[j]] })
	rng := rand.New(rand.NewSource(seed))
	var plan []string
	for r := rounds(seconds, paperRoundS); r > 0; r-- {
		var round []string
		for i := 0; i < len(byCost); i += paperGroup {
			group := byCost[i:min(i+paperGroup, len(byCost))]
			round = append(round, group[rng.Intn(len(group))])
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		plan = append(plan, round...)
	}
	return plan
}

// sampledPlan returns indices into sampledCells: whole rounds, each cell
// once per round in seeded order.
func sampledPlan(seed int64, seconds float64) []int {
	rng := rand.New(rand.NewSource(seed))
	var plan []int
	for r := rounds(seconds, sampledRoundS); r > 0; r-- {
		plan = append(plan, rng.Perm(len(sampledCells))...)
	}
	return plan
}

// serviceOp is one request: a universe spec, cold (never seen by the
// server) or warm (a repeat from the corpus built at set-up).
type serviceOp struct {
	Spec int
	Cold bool
}

// servicePlan returns the warm corpus and the request sequence. Corpus and
// cold specs are disjoint draws from one seeded permutation of the
// universe, so no cold spec is ever a cache hit and none repeats.
func servicePlan(seed int64, seconds float64) (corpus []int, ops []serviceOp, err error) {
	n := rounds(seconds, 1/serviceRoundsPerS)
	if serviceCorpus+n > universeSize() {
		return nil, nil, fmt.Errorf("service-mix: %d cold requests exceed the %d-spec universe; lower --seconds", n, universeSize()-serviceCorpus)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(universeSize())
	corpus, cold := perm[:serviceCorpus], perm[serviceCorpus:]
	ops = make([]serviceOp, 0, n*roundLen)
	for r := 0; r < n; r++ {
		coldAt := rng.Intn(roundLen)
		for k := 0; k < roundLen; k++ {
			if k == coldAt {
				ops = append(ops, serviceOp{Spec: cold[r], Cold: true})
			} else {
				ops = append(ops, serviceOp{Spec: corpus[rng.Intn(len(corpus))]})
			}
		}
	}
	return corpus, ops, nil
}
