//go:build rlpmbench

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// meta identifies the machine and the code a run measured.
type meta struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPU          int    `json:"cpu"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func collectMeta(opt options) meta {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return meta{
		Workload: opt.wl.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		NProc: opt.cpus.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: opt.cpus.cpu,
		GoVersion: runtime.Version(),
		CPUModel:  cpuModel(), Commit: commit, SourceSHA256: sourceDigest(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod (paths and
// contents, in path order), naming the code under test where no commit
// id is available.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (p == "go.mod" || strings.HasSuffix(p, ".go")) {
				paths = append(paths, p)
			}
			return nil
		})
	}
	for _, p := range paths { // WalkDir visits in lexical order
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
