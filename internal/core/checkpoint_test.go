package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"

	"dmdc/internal/checkpoint"
	"dmdc/internal/config"
	"dmdc/internal/energy"
	"dmdc/internal/lsq"
	"dmdc/internal/trace"
)

// ckptSim builds a fresh Config1 pipeline over a generated benchmark with
// one of the policy families the checkpoint format must cover.
func ckptSim(t testing.TB, bench, polKind string) *Sim {
	t.Helper()
	cfg := config.Config1()
	prof, err := trace.ByName(bench)
	if err != nil {
		t.Fatalf("profile %q: %v", bench, err)
	}
	em := energy.NewModel(cfg.CoreSize())
	var pol lsq.Policy
	switch polKind {
	case "cam":
		pol, err = lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em)
	case "yla":
		pol, err = lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize, Filter: lsq.FilterYLA, YLARegs: 8}, em)
	case "dmdc":
		pol, err = lsq.NewDMDC(lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize), em)
	case "dmdc-local":
		dc := lsq.DefaultDMDCConfig(cfg.CheckTable, cfg.ROBSize)
		dc.Local = true
		pol, err = lsq.NewDMDC(dc, em)
	case "valuebased":
		pol, err = lsq.NewValueBased(lsq.ValueBasedConfig{SVW: true, SVWSize: 64, LoadCap: cfg.ROBSize}, em)
	default:
		t.Fatalf("unknown policy kind %q", polKind)
	}
	if err != nil {
		t.Fatalf("policy %q: %v", polKind, err)
	}
	s, err := New(cfg, prof, pol, em)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return s
}

func fingerprint(t testing.TB, r *Result) string {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestCheckpointRestoreMidPipeline drives a pipeline cycle by cycle,
// checkpoints it at hairy mid-flight states — mid-replay, mid-wrong-path
// fetch, the cycle right after a squash — and at fixed commit milestones,
// then proves three properties for every capture:
//
//  1. Saving is a pure read: the donor, continued to the end, produces the
//     exact result of an untouched twin that never checkpointed.
//  2. Restoring is canonical: a restored pristine sim re-encodes to the
//     byte-identical blob.
//  3. Restore equivalence: the restored sim, run to the same commit
//     target, produces a byte-identical result fingerprint.
func TestCheckpointRestoreMidPipeline(t *testing.T) {
	const finalInsts = 20000
	combos := []struct {
		bench, pol string
	}{
		{"gzip", "cam"},
		{"gcc", "dmdc"},
		{"swim", "valuebased"},
	}
	// Aggregate coverage of the interesting capture predicates across the
	// whole matrix; each must fire somewhere or the test is not exercising
	// the states it claims to.
	hit := map[string]bool{}

	for _, c := range combos {
		c := c
		t.Run(c.bench+"/"+c.pol, func(t *testing.T) {
			donor := ckptSim(t, c.bench, c.pol)
			type capture struct {
				label string
				blob  []byte
				at    uint64 // committed instructions at capture
			}
			var caps []capture
			save := func(label string) {
				blob, err := donor.SaveCheckpoint()
				if err != nil {
					t.Fatalf("save %s at commit %d: %v", label, donor.committed, err)
				}
				again, err := donor.SaveCheckpoint()
				if err != nil || !bytes.Equal(blob, again) {
					t.Fatalf("save %s is not repeatable (err %v)", label, err)
				}
				caps = append(caps, capture{label, blob, donor.committed})
				hit[label] = true
			}

			var lastSquash uint64
			milestones := []uint64{1500, 3000}
			seen := map[string]bool{}
			for donor.committed < finalInsts-2000 {
				donor.step()
				if donor.simErr != nil {
					t.Fatalf("step failed: %v", donor.simErr)
				}
				if !seen["mid-replay"] && len(donor.replayQ) > donor.rqHead {
					seen["mid-replay"] = true
					save("mid-replay")
				}
				if !seen["mid-wrong-path"] && donor.wpActive {
					seen["mid-wrong-path"] = true
					save("mid-wrong-path")
				}
				if !seen["post-squash"] && donor.mispredictRecoveries > lastSquash {
					seen["post-squash"] = true
					save("post-squash")
				}
				lastSquash = donor.mispredictRecoveries
				if len(milestones) > 0 && donor.committed >= milestones[0] {
					save("milestone")
					milestones = milestones[1:]
				}
			}
			if len(caps) < 2 {
				t.Fatalf("only %d captures; the run never reached the milestones", len(caps))
			}

			// Donor runs to the end; an untouched twin must agree exactly,
			// proving the saves perturbed nothing.
			donorRes, err := donor.Run(finalInsts - donor.committed)
			if err != nil {
				t.Fatalf("donor run: %v", err)
			}
			twin := ckptSim(t, c.bench, c.pol)
			twinRes, err := twin.Run(finalInsts)
			if err != nil {
				t.Fatalf("twin run: %v", err)
			}
			want := fingerprint(t, twinRes)
			if got := fingerprint(t, donorRes); got != want {
				t.Fatalf("checkpointing perturbed the donor run:\ndonor: %s\ntwin:  %s", got, want)
			}

			for _, cp := range caps {
				restored := ckptSim(t, c.bench, c.pol)
				if err := restored.RestoreCheckpoint(cp.blob); err != nil {
					t.Fatalf("restore %s at commit %d: %v", cp.label, cp.at, err)
				}
				reblob, err := restored.SaveCheckpoint()
				if err != nil {
					t.Fatalf("re-save after restore %s: %v", cp.label, err)
				}
				if !bytes.Equal(reblob, cp.blob) {
					t.Fatalf("restore %s at commit %d is not canonical: re-encoded blob differs", cp.label, cp.at)
				}
				res, err := restored.Run(finalInsts - cp.at)
				if err != nil {
					t.Fatalf("restored run from %s at commit %d: %v", cp.label, cp.at, err)
				}
				if got := fingerprint(t, res); got != want {
					t.Errorf("restore %s at commit %d diverged from the original run", cp.label, cp.at)
				}
			}
		})
	}

	for _, label := range []string{"mid-replay", "mid-wrong-path", "post-squash", "milestone"} {
		if !hit[label] {
			t.Errorf("capture predicate %q never fired across the matrix", label)
		}
	}
}

// TestCheckpointHeaderMismatch proves a blob refuses to restore into a sim
// whose identity differs from the donor in any header-bound dimension.
func TestCheckpointHeaderMismatch(t *testing.T) {
	donor := ckptSim(t, "gzip", "cam")
	if _, err := donor.Run(1000); err != nil {
		t.Fatalf("donor run: %v", err)
	}
	blob, err := donor.SaveCheckpoint()
	if err != nil {
		t.Fatalf("save: %v", err)
	}

	cases := []struct {
		name       string
		bench, pol string
		cfg        func() config.Machine
	}{
		{"benchmark", "gcc", "cam", nil},
		{"policy", "gzip", "dmdc", nil},
		{"config", "gzip", "cam", config.Config2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var s *Sim
			if c.cfg != nil {
				cfg := c.cfg()
				prof, err := trace.ByName(c.bench)
				if err != nil {
					t.Fatal(err)
				}
				em := energy.NewModel(cfg.CoreSize())
				pol, err := lsq.NewCAM(lsq.CAMConfig{LQSize: cfg.LQSize}, em)
				if err != nil {
					t.Fatal(err)
				}
				s = MustSim(New(cfg, prof, pol, em))
			} else {
				s = ckptSim(t, c.bench, c.pol)
			}
			err := s.RestoreCheckpoint(blob)
			var fe *checkpoint.FormatError
			if !errors.As(err, &fe) || fe.Kind != checkpoint.Mismatch {
				t.Fatalf("restore into mismatched %s: got %v, want Mismatch FormatError", c.name, err)
			}
		})
	}
}

// TestCheckpointPreconditions covers the operational (non-format) refusals:
// restoring into a used sim and fast-forwarding a non-idle pipeline.
func TestCheckpointPreconditions(t *testing.T) {
	donor := ckptSim(t, "gzip", "cam")
	if _, err := donor.Run(500); err != nil {
		t.Fatal(err)
	}
	blob, err := donor.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	used := ckptSim(t, "gzip", "cam")
	if _, err := used.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := used.RestoreCheckpoint(blob); err == nil {
		t.Fatal("restore into a used sim succeeded; want pristine-sim refusal")
	}

	// A sim driven by the test-only reference scheduler must refuse both
	// directions: a restored run would silently switch schedulers.
	ref := ckptSim(t, "gzip", "cam")
	withWakeupShadow()(ref)
	if err := ref.RestoreCheckpoint(blob); err == nil {
		t.Fatal("restore into a reference-scheduler sim succeeded")
	}
	if _, err := ref.SaveCheckpoint(); err == nil {
		t.Fatal("save of a reference-scheduler sim succeeded")
	}

	// A sim with in-flight pipeline state must refuse to fast-forward.
	busy := ckptSim(t, "gzip", "cam")
	for busy.count == 0 {
		busy.step()
		if busy.simErr != nil {
			t.Fatal(busy.simErr)
		}
	}
	if err := busy.FastForward(10, true); err == nil {
		t.Fatal("FastForward with a non-empty ROB succeeded; want idle-pipeline refusal")
	}
}

// TestFastForwardThenRun proves functional fast-forward composes with
// detailed execution: the generator position advances deterministically, so
// two sims fast-forwarded the same distance stay byte-identical.
func TestFastForwardThenRun(t *testing.T) {
	a := ckptSim(t, "gcc", "dmdc")
	b := ckptSim(t, "gcc", "dmdc")
	for _, s := range []*Sim{a, b} {
		if err := s.FastForward(2000, false); err != nil {
			t.Fatalf("cold fast-forward: %v", err)
		}
		if err := s.FastForward(1000, true); err != nil {
			t.Fatalf("warm fast-forward: %v", err)
		}
		if s.committed != 3000 {
			t.Fatalf("committed %d after fast-forwarding 3000", s.committed)
		}
	}
	ra, err := a.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, ra) != fingerprint(t, rb) {
		t.Fatal("two identical fast-forwarded runs diverged")
	}
}

// fuzzSeedBlob builds one small valid checkpoint for the fuzz corpus.
func fuzzSeedBlob(t testing.TB) []byte {
	s := ckptSim(t, "gzip", "cam")
	if _, err := s.Run(1200); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	blob, err := s.SaveCheckpoint()
	if err != nil {
		t.Fatalf("seed save: %v", err)
	}
	return blob
}

// FuzzCheckpointRoundTrip asserts the decoder's core contract on arbitrary
// input: RestoreCheckpoint either fails with a typed *checkpoint.FormatError
// or accepts — and an accepted blob re-encodes byte-identically (no silent
// canonicalization, no partial state). It must never panic.
func FuzzCheckpointRoundTrip(f *testing.F) {
	blob := fuzzSeedBlob(f)
	f.Add(append([]byte(nil), blob...))
	f.Add(blob[:len(blob)/2])         // truncation
	f.Add([]byte("not a checkpoint")) // foreign payload
	f.Add([]byte{})

	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped) // checksum failure

	// Version skew with a recomputed CRC, so the decoder reaches the
	// version check rather than stopping at the checksum.
	skew := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(skew[12:16], checkpoint.FormatVersion+7)
	binary.LittleEndian.PutUint32(skew[8:12], crc32.ChecksumIEEE(skew[12:]))
	f.Add(skew)

	f.Fuzz(func(t *testing.T, data []byte) {
		s := ckptSim(t, "gzip", "cam")
		err := s.RestoreCheckpoint(data)
		if err != nil {
			var fe *checkpoint.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("restore failed with untyped error %T: %v", err, err)
			}
			return
		}
		out, err := s.SaveCheckpoint()
		if err != nil {
			t.Fatalf("accepted blob failed to re-save: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted blob is not canonical: re-encode differs (%d vs %d bytes)", len(out), len(data))
		}
	})
}
