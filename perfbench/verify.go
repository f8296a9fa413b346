package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dmdc/internal/core"
)

// Pinned outputs live beside the benchmark, like testdata/golden beside
// the simulator: sha256 digests of every result a run can deliver, the
// model statistics of every paper-matrix column and sampled cell, and the
// full-run reference cycles behind est_err_pct. Regenerate them with
// -pin (see README.md); runs only read them.
//
//go:embed pins/pins.json pins/service.txt
var pinFS embed.FS

// pins is the decoded pin set.
type pins struct {
	// Paper maps a benchmark to its report column's pins.
	Paper map[string]paperPin `json:"paper"`
	// Sampled pins each sampled cell, in sampledCells order.
	Sampled []sampledPin `json:"sampled"`
	// Service holds one digest per universe spec, by universe index
	// (read from service.txt, one per line).
	Service []string `json:"-"`
}

type paperPin struct {
	Digest string     `json:"digest"`
	Model  modelStats `json:"model"`
	// CostMS is the column's host time when the pins were made. It only
	// pairs benchmarks of similar cost in paperPlan; runs never compare
	// against it.
	CostMS float64 `json:"cost_ms"`
}

type sampledPin struct {
	sampledCell
	Digest string     `json:"digest"`
	Model  modelStats `json:"model"`
	// FullCycles is the simulated cycle count of the same cell run in
	// full detail: the reference est_err_pct is measured against.
	FullCycles uint64 `json:"full_cycles"`
}

func loadPins() (*pins, error) {
	raw, err := pinFS.ReadFile("pins/pins.json")
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	svc, err := pinFS.ReadFile("pins/service.txt")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(svc))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			p.Service = append(p.Service, line)
		}
	}
	if len(p.Paper) != len(benchmarks) || len(p.Sampled) != len(sampledCells) || len(p.Service) != universeSize() {
		return nil, fmt.Errorf("pins cover %d/%d/%d items, want %d/%d/%d: regenerate with -pin",
			len(p.Paper), len(p.Sampled), len(p.Service), len(benchmarks), len(sampledCells), universeSize())
	}
	for i, c := range sampledCells {
		if p.Sampled[i].sampledCell != c {
			return nil, fmt.Errorf("pins: sampled cell %d is %+v, want %+v: regenerate with -pin", i, p.Sampled[i].sampledCell, c)
		}
	}
	return &p, nil
}

// digest is the first 16 hex digits of the sha256 of v's JSON encoding.
// encoding/json is deterministic for the result types (struct fields in
// declaration order, stats in their canonical slice order), and float64
// values round-trip exactly through it, so a result decoded off the wire
// digests like the one computed in process.
func digest(v any) (string, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), b, nil
}

// paperDigest digests a report column: the raw results of every run key,
// in key order. The report text is left out so a formatting change does
// not read as a model change.
func paperDigest(results map[string][]*core.Result) (string, error) {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		b, err := json.Marshal(results[k])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n%s\n", k, b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// modelStats is the deterministic simulated block every workload prints:
// a speed-only change must leave it bit-identical.
type modelStats struct {
	IPC                float64 `json:"core.ipc"`
	ReplaysPerKInst    float64 `json:"lsq.replays_per_kinst"`
	LQSearchesPerKInst float64 `json:"lsq.lq_searches_per_kinst"`
	L1DMissRate        float64 `json:"cache.l1d_miss_rate"`
	MispredictRate     float64 `json:"bpred.mispredict_rate"`
}

// modelAcc pools the counters behind modelStats over many results, so the
// block is a ratio of sums (independent of result order).
type modelAcc struct {
	insts, cycles, replays, lqSearches, l1dAcc, l1dMiss, bpLookups, bpMiss float64
}

func (a *modelAcc) add(r *core.Result) {
	a.insts += float64(r.Insts)
	a.cycles += float64(r.Cycles)
	a.replays += r.Stats.Get("core_replays_total")
	a.lqSearches += r.Stats.Get("lq_searches")
	a.l1dAcc += r.Stats.Get("l1d_accesses")
	a.l1dMiss += r.Stats.Get("l1d_misses")
	a.bpLookups += r.Stats.Get("bpred_lookups")
	a.bpMiss += r.Stats.Get("bpred_mispredicts")
}

func (a *modelAcc) merge(b modelAcc) {
	a.insts += b.insts
	a.cycles += b.cycles
	a.replays += b.replays
	a.lqSearches += b.lqSearches
	a.l1dAcc += b.l1dAcc
	a.l1dMiss += b.l1dMiss
	a.bpLookups += b.bpLookups
	a.bpMiss += b.bpMiss
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a modelAcc) stats() modelStats {
	return modelStats{
		IPC:                ratio(a.insts, a.cycles),
		ReplaysPerKInst:    ratio(1000*a.replays, a.insts),
		LQSearchesPerKInst: ratio(1000*a.lqSearches, a.insts),
		L1DMissRate:        ratio(a.l1dMiss, a.l1dAcc),
		MispredictRate:     ratio(a.bpMiss, a.bpLookups),
	}
}

// tally counts ops for ok_frac: an op is ok only when it completed and
// every check on its output passed. Failures are kept with a reason and
// printed; a run never stops on one.
type tally struct {
	attempted, ok int
	failures      []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		t.ok++
		return
	}
	t.failures = append(t.failures, err.Error())
}

func (t *tally) failed() int { return t.attempted - t.ok }

func (t *tally) okFrac() float64 { return ratio(float64(t.ok), float64(t.attempted)) }
