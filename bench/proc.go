//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// env is what every run shares: where the repo is, where the built
// binaries and scratch files live, and the box's description.
type env struct {
	root      string // repo root (the directory holding cmd/ and bench/)
	buildDir  string // root/.bench_build
	workDir   string // per-process scratch under buildDir, removed at exit
	sweepBin  string
	servedBin string
}

// findRoot walks up from the working directory to the repo root, the
// directory whose go.mod declares module ripki.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module ripki\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod declaring module ripki above the working directory")
		}
		dir = parent
	}
}

// newEnv locates the repo, builds the two measured binaries once, and
// creates the scratch directory. No clock has started yet.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build")}
	bin := filepath.Join(e.buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/ripki-sweep", "./cmd/ripki-served")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building the measured binaries: %w\n%s", err, out)
	}
	e.sweepBin = filepath.Join(bin, "ripki-sweep")
	e.servedBin = filepath.Join(bin, "ripki-served")
	if e.workDir, err = os.MkdirTemp(e.buildDir, fmt.Sprintf("run-%d-", os.Getpid())); err != nil {
		return nil, err
	}
	return e, nil
}

// close removes the scratch directory.
func (e *env) close() { os.RemoveAll(e.workDir) }

// boxInfo describes the machine and toolchain a run was taken on.
type boxInfo struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func (e *env) boxInfo() boxInfo {
	info := boxInfo{
		Commit:     "unknown", // a driver checkout is not a git repository
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = e.root
	if out, err := git.Output(); err == nil {
		info.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				info.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return info
}

// command prepares a child that dies with the bench: the context kills
// it on cancellation (SIGINT included, see main), and Pdeathsig covers a
// bench that is itself killed.
func command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// rusage is what one finished child cost.
type rusage struct {
	wall time.Duration
	cpu  time.Duration // user + system
}

func childRusage(cmd *exec.Cmd, wall time.Duration) rusage {
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return rusage{wall: wall, cpu: tv(ru.Utime) + tv(ru.Stime)}
}

// processCPU is the bench process's CPU time so far from the process
// clock, which unlike getrusage is current to the nanosecond for the
// calling thread.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// It is 100 on every Linux port Go supports.
const clockTick = 100

// procCPU reads a running process's user + system time from /proc.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS reads a running process's high-water RSS (VmHWM), in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: unparsable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}
