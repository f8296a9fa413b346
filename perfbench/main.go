// Command perfbench is the repository's benchmark: three workloads run
// through the simulator's public entry points — the paper's report matrix
// (experiments.Suite), a dmdcd service mix (dserve.Server driven by
// dserve.Remote clients) and sampled simulation (experiments.RunSampled) —
// with every delivered result checked against pinned digests.
//
//	bash perfbench/run.sh --workload paper-matrix --seed 1 --seconds 20 --trace 0
//
// builds it and runs one workload. The last line of standard output is a
// JSON object with the run's verdict and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A copy of the
// result with the host fingerprint and the latency distributions lands in
// .bench_build/results. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	buildDir = ".bench_build"
	// maxMeasure caps a run's measuring so even a very slow host exits
	// inside the three-minute run deadline.
	maxMeasure = 120 * time.Second
)

var workloads = []string{"paper-matrix", "service-mix", "sampled"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of dmdcd sees; every
// workload reports all of them with --trace 0.
var endToEnd = []metricDef{
	{"minsts_per_s", "Minst/s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
	{"ok_frac", "frac"},
}

// perLayer are the traced run's metrics, one set per module. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"core.cpu_frac", "frac"},
	{"core.issue_frac", "frac"},
	{"core.host_ns_per_sim_cycle", "ns"},
	{"trace.cpu_frac", "frac"},
	{"lsq.cpu_frac", "frac"},
	{"cache.cpu_frac", "frac"},
	{"bpred.cpu_frac", "frac"},
	{"energy.cpu_frac", "frac"},
	{"core.ipc", "insts/cycle"},
	{"lsq.replays_per_kinst", "1/kinst"},
	{"lsq.lq_searches_per_kinst", "1/kinst"},
	{"cache.l1d_miss_rate", "frac"},
	{"bpred.mispredict_rate", "frac"},
	{"experiments.cell_ms_p50", "ms"},
	{"experiments.allocs_per_cell", "count"},
	{"experiments.bytes_per_cell", "bytes"},
	{"experiments.sims_per_op", "count"},
	{"experiments.construct_us", "us"},
	{"experiments.interval_ms_p50", "ms"},
	{"experiments.ff_frac", "frac"},
	{"experiments.est_err_pct", "%"},
	{"checkpoint.bytes_per_interval", "bytes"},
	{"checkpoint.cpu_frac", "frac"},
	{"resultcache.get_us_p50", "us"},
	{"resultcache.put_us_p50", "us"},
	{"resultcache.hit_frac", "frac"},
	{"jobstore.bytes_per_job", "bytes"},
	{"jobstore.cpu_frac", "frac"},
	{"dserve.warm_rtt_us_p50", "us"},
	{"dserve.cold_rtt_ms_p50", "ms"},
	{"dserve.overhead_us", "us"},
	{"dserve.http_json_cpu_frac", "frac"},
	{"dserve.executed", "count"},
	{"dserve.cache_hits", "count"},
	{"dserve.rejected", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"tracing.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// distribution summarizes one within-run sample set.
type distribution struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90,omitempty"`
}

func distOf(xs []float64) distribution {
	q1, q2, q3 := quartiles(xs)
	d := distribution{N: len(xs), Q1: q1, Median: q2, Q3: q3}
	if reportable(len(xs), 90) {
		d.P90 = percentile(xs, 90)
	}
	return d
}

// resultFile is the full record written beside the verdict.
type resultFile struct {
	Workload      string                  `json:"workload"`
	Seed          int64                   `json:"seed"`
	Seconds       float64                 `json:"seconds"`
	Trace         int                     `json:"trace"`
	Host          fingerprint             `json:"host"`
	Verdict       verdict                 `json:"verdict"`
	Failures      []string                `json:"failures,omitempty"`
	Cut           bool                    `json:"cut,omitempty"`
	Model         modelStats              `json:"model"`
	Distributions map[string]distribution `json:"distributions"`
	// BlockMinstPerS is minsts_per_s over ten consecutive blocks of the
	// measured phase: host slow phases show as dips here.
	BlockMinstPerS []float64 `json:"block_minsts_per_s"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: paper-matrix, service-mix or sampled")
	seed := flag.Int64("seed", 1, "seed for the op plan")
	seconds := flag.Float64("seconds", 20, "nominal measuring time; sizes the op plan")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	results := flag.String("results", filepath.Join(buildDir, "results"), "directory for the full result files")
	pin := flag.Bool("pin", false, "recompute the pinned digests, model blocks and full-run reference cycles into perfbench/pins, then exit")
	summarize := flag.String("summarize", "", "print median, quartiles and spread per workload and metric over the result files in this directory, then exit")
	flag.Parse()

	ctx := context.Background()
	switch {
	case *pin:
		if err := writePins(ctx, filepath.Join("perfbench", "pins")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	case *summarize != "":
		if err := summarizeDir(*summarize); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if err := checkCatalog(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := checkArgs(*workload, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	pn, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workRoot := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host := hostFingerprint(workRoot)

	rf := resultFile{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: host,
		Distributions: map[string]distribution{}}
	var metrics map[string]float64
	var notes []string
	if *trace == 0 {
		cfg := passConfig{now: time.Now, limit: capped(3 * *seconds), setupReps: 3, setupAfter: 2}
		p, err := runWorkload(ctx, pn, *workload, *seed, *seconds, workRoot, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		metrics, notes = endToEndMetrics(p)
		rf.fill(p)
	} else {
		// Two passes over the same plan, untraced then traced, each with
		// half the time: the per-layer figures come from the traced pass,
		// tracing.overhead_pct from the pair.
		half := *seconds / 2
		cfg := passConfig{now: time.Now, limit: capped(1.5 * *seconds), setupReps: 1}
		plain, err := runWorkload(ctx, pn, *workload, *seed, half, workRoot, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		cfg.traced = true
		traced, err := runWorkload(ctx, pn, *workload, *seed, half, workRoot, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		metrics, err = layerMetrics(ctx, plain, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		notes = traced.notes
		rf.fill(traced)
		rf.Verdict.Attempted += plain.tally.attempted
		rf.Verdict.Failed += plain.tally.failed()
		rf.Failures = append(plain.tally.failures, rf.Failures...)
		rf.Cut = rf.Cut || plain.cut
	}
	rf.Verdict.Correct = rf.Verdict.Failed == 0 && rf.Verdict.Attempted > 0

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	rf.Verdict.Metrics = map[string]metricValue{}
	for _, d := range defs {
		rf.Verdict.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}

	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, tree %s, work fs %s, calibration %.4f ns/iter\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit, host.TreeSHA, host.WorkFS, host.CalibrationNS)
	for _, n := range notes {
		fmt.Println(n)
	}
	for _, f := range rf.Failures {
		fmt.Println("FAILED:", f)
	}
	if rf.Cut {
		fmt.Println("WARNING: the measuring cap stopped the plan early; ops not run are not counted")
	}
	m := rf.Model
	fmt.Printf("model (simulated, pinned per result): core.ipc %.6f lsq.replays_per_kinst %.6f lsq.lq_searches_per_kinst %.6f cache.l1d_miss_rate %.6f bpred.mispredict_rate %.6f\n",
		m.IPC, m.ReplaysPerKInst, m.LQSearchesPerKInst, m.L1DMissRate, m.MispredictRate)
	for _, name := range sortedKeys(rf.Distributions) {
		d := rf.Distributions[name]
		fmt.Printf("%s: n %d, q1 %.4f, median %.4f, q3 %.4f", name, d.N, d.Q1, d.Median, d.Q3)
		if d.P90 != 0 {
			fmt.Printf(", p90 %.4f", d.P90)
		}
		fmt.Println()
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6f %s\n", d.name, metrics[d.name], d.unit)
	}
	if err := writeResult(*results, rf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
	}
	out, err := json.Marshal(rf.Verdict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// checkCatalog rejects a workload or metric name or unit the result format
// does not allow, and duplicate names.
func checkCatalog() error {
	seen := map[string]bool{}
	for _, w := range workloads {
		if !validName(w) {
			return fmt.Errorf("workload name %q is invalid", w)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		switch {
		case !validName(d.name):
			return fmt.Errorf("metric name %q is invalid", d.name)
		case !validUnit(d.unit):
			return fmt.Errorf("metric %s: unit %q is invalid", d.name, d.unit)
		case seen[d.name]:
			return fmt.Errorf("metric %s is declared twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

func checkArgs(workload string, seconds float64, trace int) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	case seconds < 1 || seconds > 60:
		return fmt.Errorf("--seconds %v outside 1..60", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	return nil
}

// capped converts a measuring allowance in seconds to a limit no larger
// than maxMeasure.
func capped(s float64) time.Duration {
	d := time.Duration(s * float64(time.Second))
	if d > maxMeasure {
		return maxMeasure
	}
	return d
}

// runWorkload plans and measures one pass of a workload.
func runWorkload(ctx context.Context, pn *pins, workload string, seed int64, seconds float64, workRoot string, cfg passConfig) (*pass, error) {
	switch workload {
	case "paper-matrix":
		cost := map[string]float64{}
		for b, p := range pn.Paper {
			cost[b] = p.CostMS
		}
		return runPaper(ctx, pn, paperPlan(seed, seconds, cost), cfg)
	case "sampled":
		return runSampled(ctx, pn, sampledPlan(seed, seconds), cfg)
	case "service-mix":
		corpus, plan, err := servicePlan(seed, seconds)
		if err != nil {
			return nil, err
		}
		return runService(ctx, pn, workRoot, corpus, plan, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func opMS(p *pass) []float64 {
	xs := make([]float64, len(p.ops))
	for i, o := range p.ops {
		xs[i] = o.MS
	}
	return xs
}

// rate is committed instructions per host second over the measured phase.
func rate(p *pass) float64 {
	return ratio(float64(p.insts()), p.elapsed.Seconds())
}

func endToEndMetrics(p *pass) (map[string]float64, []string) {
	notes := append([]string(nil), p.notes...)
	ops := opMS(p)
	m := map[string]float64{
		"minsts_per_s": rate(p) / 1e6,
		"ops_per_s":    ratio(float64(len(p.ops)), p.elapsed.Seconds()),
		"op_ms_p50":    percentile(ops, 50),
		"max_rss_mb":   maxRSSMB(),
		"setup_s":      percentile(p.setupS, 50),
		"ok_frac":      p.tally.okFrac(),
	}
	// job_ms_p90 needs ten samples above it; runs too short for that
	// report the highest percentile that has them.
	pct := 90.0
	for pct > 50 && !reportable(len(p.jobMS), pct) {
		pct -= 10
	}
	if pct != 90 {
		notes = append(notes, fmt.Sprintf("job_ms_p90: only %d jobs, reporting p%.0f", len(p.jobMS), pct))
	}
	m["job_ms_p90"] = percentile(p.jobMS, pct)
	if reportable(len(ops), 90) {
		notes = append(notes, fmt.Sprintf("op_ms_p90 %.4f ms (%d ops)", percentile(ops, 90), len(ops)))
	}
	return m, notes
}

func layerMetrics(ctx context.Context, plain, traced *pass) (map[string]float64, error) {
	m := map[string]float64{}
	for k, v := range traced.layer {
		m[k] = v
	}
	tr := traced.tr
	if tr.profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", tr.profErr)
	}
	samples, err := parseProfile(tr.prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range profileShares(samples) {
		m[k] = v
	}
	m["runtime.gc_cpu_frac"] = ratio(tr.delta(mGCCPU), tr.delta(mTotalCPU))
	m["experiments.allocs_per_cell"] = ratio(tr.delta(mAllocObjs), float64(traced.sims))
	m["experiments.bytes_per_cell"] = ratio(tr.delta(mAllocBytes), float64(traced.sims))
	if m["experiments.construct_us"], err = constructUS(ctx); err != nil {
		return nil, fmt.Errorf("construct: %w", err)
	}
	mb := traced.modelBlock
	m["core.ipc"] = mb.IPC
	m["lsq.replays_per_kinst"] = mb.ReplaysPerKInst
	m["lsq.lq_searches_per_kinst"] = mb.LQSearchesPerKInst
	m["cache.l1d_miss_rate"] = mb.L1DMissRate
	m["bpred.mispredict_rate"] = mb.MispredictRate
	if r := rate(traced); r > 0 {
		m["tracing.overhead_pct"] = (rate(plain)/r - 1) * 100
	}
	return m, nil
}

func (rf *resultFile) fill(p *pass) {
	rf.Verdict.Attempted = p.tally.attempted
	rf.Verdict.Failed = p.tally.failed()
	rf.Failures = p.tally.failures
	rf.Cut = p.cut
	rf.Model = p.modelBlock
	rf.Distributions["op_ms"] = distOf(opMS(p))
	rf.Distributions["job_ms"] = distOf(p.jobMS)
	rf.Distributions["setup_s"] = distOf(p.setupS)
	for _, r := range p.blockRates(10) {
		rf.BlockMinstPerS = append(rf.BlockMinstPerS, r/1e6)
	}
}

func writeResult(dir string, rf resultFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rf.Workload, rf.Seed, rf.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// summarizeDir prints, per workload and trace mode, the median, quartiles
// and spread ((q3-q1)/median) of every metric over the result files in dir.
func summarizeDir(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return errors.New("no result files in " + dir)
	}
	type group struct {
		units  map[string]string
		values map[string][]float64
		calib  []float64
	}
	groups := map[string]*group{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s trace=%d", rf.Workload, rf.Trace)
		g := groups[key]
		if g == nil {
			g = &group{units: map[string]string{}, values: map[string][]float64{}}
			groups[key] = g
		}
		for name, mv := range rf.Verdict.Metrics {
			g.units[name] = mv.Unit
			g.values[name] = append(g.values[name], mv.Value)
		}
		g.calib = append(g.calib, rf.Host.CalibrationNS)
	}
	for _, key := range sortedKeys(groups) {
		g := groups[key]
		q1, q2, q3 := quartiles(g.calib)
		fmt.Printf("%s (%d runs; calibration median %.4f ns/iter, q1 %.4f, q3 %.4f)\n", key, len(g.calib), q2, q1, q3)
		for _, name := range sortedKeys(g.values) {
			xs := g.values[name]
			q1, q2, q3 := quartiles(xs)
			fmt.Printf("  %-32s median %14.6f  q1 %14.6f  q3 %14.6f  spread %.4f  %s\n", name, q2, q1, q3, spread(xs), g.units[name])
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
