package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envStamp records the machine and toolchain a result was measured on;
// a number without it cannot be compared with anything.
type envStamp struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
	GoVersion  string   `json:"go_version"`
	GitCommit  string   `json:"git_commit"`
	Kernel     string   `json:"kernel"`
	// WALFilesystem is the filesystem type under the run's temp
	// directory, where the WAL lives: fsync cost depends on it.
	WALFilesystem string `json:"wal_filesystem"`
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// stampEnv gathers the stamp. Everything is best effort: a field the
// platform does not offer reads "unknown" rather than failing the run.
func stampEnv(root, walDir string) envStamp {
	e := envStamp{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      "unknown",
		GoVersion:     runtime.Version(),
		GitCommit:     "unknown",
		Kernel:        "unknown",
		WALFilesystem: "unknown",
	}
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				e.CPUModel = strings.TrimSpace(line[i+1:])
			}
			break
		}
	}
	caches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, c := range caches {
		level, typ, size := readTrim(c+"/level"), readTrim(c+"/type"), readTrim(c+"/size")
		if level != "" && size != "" {
			e.Caches = append(e.Caches, fmt.Sprintf("L%s %s %s", level, typ, size))
		}
	}
	if k := readTrim("/proc/sys/kernel/osrelease"); k != "" {
		e.Kernel = k
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	e.WALFilesystem = filesystemOf(walDir)
	return e
}

// filesystemOf returns the type of the filesystem holding path: the
// /proc/mounts entry with the longest mount point that prefixes it.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	best, fstype := -1, "unknown"
	for _, line := range strings.Split(readTrim("/proc/mounts"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > best {
				best, fstype = len(mp), f[2]
			}
		}
	}
	return fstype
}
