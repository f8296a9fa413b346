package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dmdc/internal/core"
	"dmdc/internal/experiments"
)

// writePins recomputes every pinned output from the simulator as it stands
// and writes pins.json and service.txt into dir. Pins change only when the
// simulated model does; a speed-only change must reproduce them exactly.
func writePins(ctx context.Context, dir string) error {
	p := pins{Paper: map[string]paperPin{}}
	for _, b := range benchmarks {
		t0 := time.Now()
		res, _, err := runPaperColumn(ctx, b, paperInsts, nil)
		if err != nil {
			return err
		}
		cost := float64(time.Since(t0).Milliseconds())
		d, err := paperDigest(res)
		if err != nil {
			return err
		}
		var a modelAcc
		for _, rs := range res {
			for _, r := range rs {
				a.add(r)
			}
		}
		p.Paper[b] = paperPin{Digest: d, Model: a.stats(), CostMS: cost}
		fmt.Fprintf(os.Stderr, "pinned paper-matrix %s (%.0f ms)\n", b, cost)
	}
	for _, c := range sampledCells {
		timer := &intervalTimer{now: time.Now, results: map[string]*core.Result{}}
		sp := c.spec()
		sp.Backend = timer
		res, err := experiments.RunSampled(ctx, sp)
		if err != nil {
			return err
		}
		d, _, err := digest(res)
		if err != nil {
			return err
		}
		last := timer.results[res.Intervals[len(res.Intervals)-1].CheckpointRef]
		full, err := experiments.ExecuteJob(ctx, sp.Job)
		if err != nil {
			return err
		}
		p.Sampled = append(p.Sampled, sampledPin{sampledCell: c, Digest: d, Model: sampledModel(res, last), FullCycles: full.Cycles})
		fmt.Fprintf(os.Stderr, "pinned sampled %+v\n", c)
	}
	var svc bytes.Buffer
	for i := 0; i < universeSize(); i++ {
		r, err := experiments.ExecuteJob(ctx, universeSpec(i))
		if err != nil {
			return fmt.Errorf("universe spec %d (%+v): %w", i, universeSpec(i), err)
		}
		d, _, err := digest(r)
		if err != nil {
			return err
		}
		fmt.Fprintln(&svc, d)
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "pins.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "service.txt"), svc.Bytes(), 0o644)
}
