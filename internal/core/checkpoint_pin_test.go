package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"testing"

	"dmdc/internal/checkpoint"
)

// TestCheckpointBytePins pins the exact bytes SaveCheckpoint writes for
// one mid-run cell of each policy family. Checkpoints, the cache keys of
// interval jobs and the sampled-run pins all address checkpoint blobs by
// content, so a change that moves a single byte — even one that restores
// to the same simulation — invalidates every stored reference. The
// digests were computed before the scan scheduler left production code
// and must not move without a format version bump.
func TestCheckpointBytePins(t *testing.T) {
	cases := []struct {
		bench, pol string
		insts      uint64
		want       string
	}{
		{"gzip", "cam", 4000, "6a3b87e70e797451ebb2d54a822ab4e4aa63aeee45f4c3a79249f41eaa73e719"},
		{"gcc", "dmdc", 6000, "76417f9ea57edbc432edeeed379845862337d6cb366318983a1fa6e3932e824c"},
		{"swim", "valuebased", 5000, "64cdf114e04ed68dffeb053e3f83348f582564d9cd0bbba4d3b3c8aa51750011"},
	}
	for _, c := range cases {
		t.Run(c.bench+"/"+c.pol, func(t *testing.T) {
			s := ckptSim(t, c.bench, c.pol)
			if _, err := s.Run(c.insts); err != nil {
				t.Fatalf("run: %v", err)
			}
			if s.count == 0 {
				t.Fatal("pipeline drained at the capture point; the pin would miss in-flight state")
			}
			blob, err := s.SaveCheckpoint()
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("checkpoint bytes moved: sha256 %s, pinned %s", got, c.want)
			}
		})
	}
}

// TestCheckpointFixedSchedulerFields covers the two checkpoint fields that
// once described the retired scan scheduler: the header's scheduler byte
// and the scan-list count in the "sched" section. Both are written as 0
// and any other value is refused with a typed error, which keeps
// "restore fails typed or re-encodes identically" true for them.
func TestCheckpointFixedSchedulerFields(t *testing.T) {
	s := ckptSim(t, "gzip", "cam")
	if _, err := s.Run(1000); err != nil {
		t.Fatalf("run: %v", err)
	}
	blob, err := s.SaveCheckpoint()
	if err != nil {
		t.Fatalf("save: %v", err)
	}

	// The scheduler byte follows the header's identity fields; encoding
	// the same prefix gives its offset.
	pre := checkpoint.NewEncoder()
	pre.Section("header")
	pre.String(s.cfg.Name)
	pre.String(s.wl.Meta().Name)
	pre.I64(s.wl.Meta().Seed)
	pre.String(s.pol.Name())
	schedByte := len(pre.Finish())

	// The scan-list count is the first value of the "sched" section.
	tag := []byte{0xA5, 5, 0, 0, 0, 's', 'c', 'h', 'e', 'd'}
	at := bytes.Index(blob, tag)
	if at < 0 {
		t.Fatal("no sched section in the blob")
	}
	schedCount := at + len(tag)

	cases := []struct {
		name string
		off  int
		kind checkpoint.ErrKind
	}{
		{"header scheduler byte", schedByte, checkpoint.Mismatch},
		{"sched list count", schedCount, checkpoint.Corrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if blob[c.off] != 0 {
				t.Fatalf("field at offset %d is %d, want the fixed 0", c.off, blob[c.off])
			}
			bad := append([]byte(nil), blob...)
			bad[c.off] = 1
			binary.LittleEndian.PutUint32(bad[8:12], crc32.ChecksumIEEE(bad[12:]))
			err := ckptSim(t, "gzip", "cam").RestoreCheckpoint(bad)
			var fe *checkpoint.FormatError
			if !errors.As(err, &fe) || fe.Kind != c.kind {
				t.Fatalf("restore of a blob with %s = 1: got %v, want a %v FormatError", c.name, err, c.kind)
			}
		})
	}
}
