package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// env stamps a result with what it was measured on, so two results are only
// compared knowing whether the machine and toolchain were the same.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func stampEnv(sp *spec) env {
	e := env{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	// The driver's checkout is not a git repository; there the commit stays
	// unknown.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = sp.root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
