package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and the code a result was measured on,
// so a slow run can be told apart from a slow program.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the checkout is a repository,
	// "unknown" otherwise; TreeSHA always identifies the Go sources.
	Commit  string `json:"commit"`
	TreeSHA string `json:"tree_sha"`
	// WorkFS is the filesystem holding the service-mix cache and journal.
	WorkFS string `json:"work_fs"`
	// CalibrationNS is the median time of a fixed integer loop: it moves
	// with the host, never with the program under test.
	CalibrationNS float64 `json:"calibration_ns_per_iter"`
}

func hostFingerprint(workDir string) fingerprint {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        commit,
		TreeSHA:       treeSHA("."),
		WorkFS:        fsType(workDir),
		CalibrationNS: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// treeSHA hashes every .go file and go.mod under root (hidden directories
// skipped) in path order: the code identity when no commit is available.
func treeSHA(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "disk:ext4"
	case 0x58465342:
		return "disk:xfs"
	case 0x9123683E:
		return "disk:btrfs"
	case 0x794C7630:
		return "overlay"
	}
	return "other"
}

// calibrate times a fixed xorshift loop five times and returns the median
// nanoseconds per iteration.
func calibrate() float64 {
	const iters = 4_000_000
	var times []float64
	x := uint64(88172645463325252)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/iters)
	}
	calibrationSink = x
	return percentile(times, 50)
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
