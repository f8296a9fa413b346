package core

import (
	"fmt"
	"strings"
	"testing"

	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/soundness"
	"dmdc/internal/trace"
)

// The reference issue scheduler. The production issue stage is the
// event-driven one in wakeup.go; this file keeps the textbook scheduler it
// must equal — every cycle, walk the live ROB window oldest-first and
// issue each waiting instruction whose notBefore has passed, whose
// functional unit is free and whose operands are ready — as an
// independent model the event scheduler is checked against at every issue
// pick. The walk is stateless: it reads only the ROB, so it shares no
// bookkeeping with the structure it checks.

// withScanWakeup drives the pipeline with the reference scan alone.
func withScanWakeup() Option {
	return func(s *Sim) { s.issueRef = func(s *Sim) { issueScan(s, false) } }
}

// withWakeupShadow drives the pipeline with the reference scan while the
// event scheduler runs as a lockstep ghost: every scan pick must be the
// ghost's next pick, and the first mismatch fails the run with a
// *WakeupDivergenceError carrying a pipeline state dump. A shadow run
// simulates identically to either scheduler alone.
func withWakeupShadow() Option {
	return func(s *Sim) { s.issueRef = func(s *Sim) { issueScan(s, true) } }
}

// WakeupDivergenceError reports the first cycle on which the reference
// scan and the event scheduler disagreed about which instruction to issue
// next. Age 0 (never a live instruction) means "no pick": ScanAge 0 with
// a nonzero EventAge is an issue only the event scheduler would make, and
// vice versa.
type WakeupDivergenceError struct {
	Cycle     uint64
	Committed uint64
	ScanAge   uint64 // the reference scan's pick (0: none)
	EventAge  uint64 // the event scheduler's pick (0: none)
	Dump      *soundness.StateDump
}

func (e *WakeupDivergenceError) Error() string {
	return fmt.Sprintf(
		"core: wakeup shadow divergence at cycle %d (committed %d): scan picked age %d, event scheduler picked age %d",
		e.Cycle, e.Committed, e.ScanAge, e.EventAge)
}

// issueScan is the reference issue stage. With shadow set, the event
// scheduler's iterator advances in lockstep over the same fuState and
// must agree with every pick (shadowCheck), and with nothing more once
// the scan stops short of the issue width (shadowFlush).
func issueScan(s *Sim, shadow bool) {
	var (
		fu    fuState
		ghost wakeIter
	)
	if shadow {
		s.newWakeIter(&ghost)
	}
	width := s.cfg.IssueWidth
	// headAge and count are re-read every iteration: beginExecution can
	// trigger a replay squash that shrinks the window mid-walk.
	for age := s.headAge; age-s.headAge < uint64(s.count) && fu.issued < width; age++ {
		idx := s.idxOf(age)
		h := &s.robHot[idx]
		if h.state != stWaiting || s.cycle < h.notBefore || !fu.ok(s, h.op) {
			continue
		}
		// Operand readiness: memory ops need only the address operand to
		// begin (stores handle data separately); others need both sources.
		// A positive result clears the slot pointer so a blocked or
		// rejected entry never re-reads a producer it already saw complete.
		if pi := h.src1Idx; pi >= 0 {
			if !srcReady(&s.robHot[pi], h.src1Prod) {
				continue
			}
			h.src1Idx = -1
		}
		if pi := h.src2Idx; pi >= 0 && !h.op.IsMem() {
			if !srcReady(&s.robHot[pi], h.src2Prod) {
				continue
			}
			h.src2Idx = -1
		}
		if shadow && !shadowCheck(s, &ghost, &fu, age) {
			return // the run is condemned (simErr set); stop issuing
		}
		if kept := s.beginExecution(idx, h); kept {
			if s.tracing {
				s.traceEvent("RJ", age, &s.robData[idx].inst, "")
			}
			continue
		}
		if s.tracing {
			s.traceEvent("IS", age, &s.robData[idx].inst, "")
		}
		s.clearReady(idx)
		fu.take(h.op)
	}
	if shadow && s.simErr == nil && fu.issued < width {
		shadowFlush(s, &ghost, &fu)
	}
	if s.tel != nil {
		s.telIssued += uint64(fu.issued)
	}
}

// shadowCheck validates one scan issue attempt against the event
// scheduler: the ghost iterator is advanced to its own next attempt, which
// must be the same instruction. On a mismatch the run fails with a
// divergence error.
func shadowCheck(s *Sim, ghost *wakeIter, fu *fuState, scanAge uint64) bool {
	var eventAge uint64
	if gi := s.nextAttempt(ghost, fu); gi >= 0 {
		eventAge = s.robHot[gi].age
	}
	if eventAge == scanAge {
		return true
	}
	s.simErr = &WakeupDivergenceError{
		Cycle:     s.cycle,
		Committed: s.committed,
		ScanAge:   scanAge,
		EventAge:  eventAge,
		Dump:      s.stateDump(),
	}
	return false
}

// shadowFlush runs after a scan that ended with issue width to spare: the
// ghost must agree that nothing else can issue. Advancing it also
// completes the event bookkeeping for the cycle (parking every remaining
// blocked candidate), so the next cycle's ghost starts in the state a
// production cycle would have left.
func shadowFlush(s *Sim, ghost *wakeIter, fu *fuState) {
	if gi := s.nextAttempt(ghost, fu); gi >= 0 {
		s.simErr = &WakeupDivergenceError{
			Cycle:     s.cycle,
			Committed: s.committed,
			EventAge:  s.robHot[gi].age,
			Dump:      s.stateDump(),
		}
	}
}

// shadowInsts keeps 26 benchmarks × 2 machines affordable under -race.
const shadowInsts = 25_000

// benchSim builds a pipeline for one generated benchmark on cfg with the
// DMDC (global window) policy or, with baseline set, the conventional
// CAM load queue.
func benchSim(t testing.TB, cfg config.Machine, bench string, baseline bool, opts ...Option) *Sim {
	t.Helper()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatalf("profile %q: %v", bench, err)
	}
	em := energy.NewModel(cfg.CoreSize())
	var pol lsq.Policy
	if baseline {
		pol, err = lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em)
	} else {
		pol, err = lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em)
	}
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	s, err := New(cfg, prof, pol, em, opts...)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return s
}

// TestWakeupShadowMatrix runs every benchmark in shadow mode — the
// reference scan drives, the event scheduler shadows every pick — on the
// primary paper machine and on the IQ-pressure stress machine (tiny
// queues, thrashing L1D, slow memory: the regime where wakeup ordering is
// hardest). Any divergence fails the run with a *WakeupDivergenceError.
// The `wakeup-shadow` make target runs it under the race detector.
func TestWakeupShadowMatrix(t *testing.T) {
	for _, bench := range trace.Names() {
		for _, cfg := range []config.Machine{config.Config2(), config.IQPressure()} {
			bench, cfg := bench, cfg
			t.Run(bench+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				if _, err := benchSim(t, cfg, bench, false, withWakeupShadow()).Run(shadowInsts); err != nil {
					t.Fatalf("shadow run diverged: %v", err)
				}
			})
		}
	}
}

// TestWakeupSchedulerEquivalence runs the same cell once under the
// reference scan alone and once under the event scheduler and requires the
// full result fingerprints — every cycle count, stat counter, and energy
// event — to be byte-identical. This is the direct form of the
// equivalence claim the shadow harness checks incrementally.
func TestWakeupSchedulerEquivalence(t *testing.T) {
	for _, bench := range []string{"gzip", "swim"} {
		for _, cfg := range []config.Machine{config.Config2(), config.IQPressure()} {
			for _, baseline := range []bool{true, false} {
				bench, cfg, baseline := bench, cfg, baseline
				pol := "dmdc"
				if baseline {
					pol = "baseline"
				}
				t.Run(bench+"/"+cfg.Name+"/"+pol, func(t *testing.T) {
					t.Parallel()
					run := func(opts ...Option) []string {
						r, err := benchSim(t, cfg, bench, baseline, opts...).Run(30_000)
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						return strings.Split(fingerprint(t, r), "\n")
					}
					scan, event := run(withScanWakeup()), run()
					for i := range scan {
						if i >= len(event) || scan[i] != event[i] {
							t.Fatalf("scan and event schedulers diverged at fingerprint line %d: scan %q", i+1, scan[i])
						}
					}
					if len(event) != len(scan) {
						t.Fatalf("fingerprints differ in length: scan %d lines, event %d", len(scan), len(event))
					}
				})
			}
		}
	}
}
