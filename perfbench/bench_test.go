package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1, 50, true},
		{0, 50, false},
		{99, 90, false}, // 9 samples beyond
		{100, 90, true}, // 10 beyond
		{999, 99, false},
		{1000, 99, true},
		{20, 50, true},
		{19, 75, false},
	}
	for _, c := range cases {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, p%v) = %v, want %v (beyond %d)", c.n, c.p, got, c.want, samplesBeyond(c.n, c.p))
		}
	}
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

// TestJobP90FallsBack checks that end-to-end reporting never prints a p90
// with fewer than ten samples above it.
func TestJobP90FallsBack(t *testing.T) {
	p := newPass()
	p.elapsed = time.Second
	for i := 0; i < 40; i++ {
		p.jobMS = append(p.jobMS, float64(i))
	}
	m, notes := endToEndMetrics(p)
	if m["job_ms_p90"] != percentile(p.jobMS, 70) {
		t.Errorf("job_ms_p90 with 40 jobs = %v, want the p70 %v", m["job_ms_p90"], percentile(p.jobMS, 70))
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "p70") {
		t.Errorf("fallback not noted: %q", notes)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1.5, 9.25, 3, 7.5, 2, 8}, [3]float64{2, 5, 8}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", s)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "lat/ms", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"x", "9a", "core.cpu_frac", "op_ms_p50", "paper-matrix", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	for _, bad := range []string{"", "a b", strings.Repeat("s", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
	if err := checkCatalog(); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestOkFracCountsCorruption feeds the service-mix checks one correct,
// one corrupted and one warm-mismatched result.
func TestOkFracCountsCorruption(t *testing.T) {
	pn, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	const idx = 7
	r, err := experiments.ExecuteJob(context.Background(), universeSpec(idx))
	if err != nil {
		t.Fatal(err)
	}
	_, good, err := digest(r)
	if err != nil {
		t.Fatal(err)
	}
	env := &serviceEnv{warm: map[int][]byte{idx: good}}

	var tl tally
	tl.record(checkService(pn, env, serviceOp{Spec: idx}, r))
	tl.record(checkService(pn, env, serviceOp{Spec: idx, Cold: true}, r))

	corrupt := *r
	corrupt.Cycles++
	tl.record(checkService(pn, env, serviceOp{Spec: idx, Cold: true}, &corrupt))

	// A warm hit that digests correctly but differs in bytes from the
	// result first served (here: the stored copy was altered).
	env.warm[idx] = append([]byte(nil), good[:len(good)-1]...)
	tl.record(checkService(pn, env, serviceOp{Spec: idx}, r))

	if tl.attempted != 4 || tl.ok != 2 || tl.failed() != 2 || tl.okFrac() != 0.5 {
		t.Fatalf("tally %+v: want 4 attempted, 2 ok, ok_frac 0.5", tl)
	}
	if !strings.Contains(tl.failures[0], "digest") || !strings.Contains(tl.failures[1], "warm hit differs") {
		t.Errorf("failure reasons: %q", tl.failures)
	}

	// A paper-matrix column whose results differ from the pins.
	res := map[string][]*core.Result{"baseline-config2": {r}}
	var acc modelAcc
	if err := checkPaper(pn, "gzip", res, &acc); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("corrupted paper column: err = %v", err)
	}
}

// fakeClock advances by step on every reading: a host as slow as step
// makes it.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestPlanIgnoresClock runs every workload's plan under a normal and a
// slowed clock: the ops issued, and their order per client, are the same.
func TestPlanIgnoresClock(t *testing.T) {
	pn, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	cost := map[string]float64{}
	for b, p := range pn.Paper {
		cost[b] = p.CostMS
	}
	_, svc, err := servicePlan(42, 2)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string][]string{}
	for _, b := range paperPlan(42, 20, cost) {
		plans["paper-matrix"] = append(plans["paper-matrix"], b)
	}
	for _, c := range sampledPlan(42, 20) {
		plans["sampled"] = append(plans["sampled"], sampledCells[c].Benchmark)
	}
	for _, op := range svc {
		plans["service-mix"] = append(plans["service-mix"], universeSpec(op.Spec).CacheKey())
	}
	issued := func(plan []string, clients int, step time.Duration) [][]string {
		clk := &fakeClock{t: time.Unix(0, 0), step: step}
		cfg := passConfig{now: clk.now, limit: 1000 * time.Hour}
		perClient := make([][]string, clients)
		p := newPass()
		p.measure(cfg, len(plan), clients, func(i int) opSample {
			perClient[i%clients] = append(perClient[i%clients], plan[i])
			return opSample{}
		})
		if p.cut || len(p.ops) != len(plan) {
			t.Fatalf("plan cut: ran %d of %d", len(p.ops), len(plan))
		}
		return perClient
	}
	for name, plan := range plans {
		clients := 1
		if name == "service-mix" {
			clients = serviceClients
		}
		fast := issued(plan, clients, time.Millisecond)
		slow := issued(plan, clients, 50*time.Millisecond)
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%s: op sequence changed under a slowed clock", name)
		}
	}
	if !reflect.DeepEqual(paperPlan(42, 20, cost), paperPlan(42, 20, cost)) ||
		reflect.DeepEqual(paperPlan(42, 20, cost), paperPlan(43, 20, cost)) {
		t.Error("paper plan is not a function of its seed")
	}
}

// TestPlanComposition checks that every seed gets the same mix: one
// benchmark per cost pair, every sampled cell per round, one never-seen
// cold request per round of four.
func TestPlanComposition(t *testing.T) {
	pn, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	cost := map[string]float64{}
	for b, p := range pn.Paper {
		cost[b] = p.CostMS
	}
	for seed := int64(1); seed <= 20; seed++ {
		pp := paperPlan(seed, paperRoundS, cost)
		if want := (len(benchmarks) + paperGroup - 1) / paperGroup; len(pp) != want {
			t.Fatalf("paper plan has %d columns, want %d", len(pp), want)
		}
		sp := sampledPlan(seed, 16)
		for r := 0; r < len(sp); r += len(sampledCells) {
			seen := map[int]bool{}
			for _, c := range sp[r : r+len(sampledCells)] {
				seen[c] = true
			}
			if len(seen) != len(sampledCells) {
				t.Fatalf("sampled round %v is not a permutation", sp[r:r+len(sampledCells)])
			}
		}
		corpus, ops, err := servicePlan(seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		inCorpus := map[int]bool{}
		for _, c := range corpus {
			inCorpus[c] = true
		}
		coldSeen := map[int]bool{}
		for r := 0; r < len(ops); r += roundLen {
			cold := 0
			for _, op := range ops[r : r+roundLen] {
				switch {
				case op.Cold && (inCorpus[op.Spec] || coldSeen[op.Spec]):
					t.Fatalf("cold spec %d seen before", op.Spec)
				case op.Cold:
					cold++
					coldSeen[op.Spec] = true
				case !inCorpus[op.Spec]:
					t.Fatalf("warm spec %d outside the corpus", op.Spec)
				}
			}
			if cold != 1 {
				t.Fatalf("round with %d cold requests", cold)
			}
		}
	}
}

func burn(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseProfile decodes a real CPU profile and finds the burning
// function in it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	calibrationSink = burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.funcs {
			found = found || strings.HasSuffix(fn, ".burn")
		}
	}
	if len(samples) == 0 || !found {
		t.Fatalf("%d samples, burn found: %v", len(samples), found)
	}
	shares := profileShares([]profSample{
		{funcs: []string{"dmdc/internal/core.(*Sim).issueEvent", "dmdc/internal/core.(*Sim).Run"}, ns: 3},
		{funcs: []string{"dmdc/internal/lsq.(*CAM).Search", "dmdc/internal/core.(*Sim).issueEvent"}, ns: 1},
	})
	if shares["core.cpu_frac"] != 0.75 || shares["lsq.cpu_frac"] != 0.25 || shares["core.issue_frac"] != 1 {
		t.Errorf("shares %v", shares)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"dmdc/internal/core.(*Sim).issueEvent": "dmdc/internal/core",
		"net/http.(*conn).serve":               "net/http",
		"runtime.mallocgc":                     "runtime",
		"main.burn":                            "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
