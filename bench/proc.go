package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the module root, so the
// bench runs the same from the checkout root (`go run ./bench`) and from
// its own directory (`go test ./bench`).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module github.com/s3pg/s3pg\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the s3pg module (no go.mod found)")
		}
		dir = parent
	}
}

// binaries are the programs under test, built from the checkout.
type binaries struct {
	S3pg, S3pgd string
	BuildS      float64
}

// buildBinaries compiles cmd/s3pg and cmd/s3pgd into binDir with plain
// `go build`: no tracing, metrics or instrumentation flags. The Go build
// cache makes every call after the first one in a checkout cheap.
func buildBinaries(root, binDir string) (binaries, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return binaries{}, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/s3pg", "./cmd/s3pgd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{
		S3pg:   filepath.Join(binDir, "s3pg"),
		S3pgd:  filepath.Join(binDir, "s3pgd"),
		BuildS: time.Since(start).Seconds(),
	}, nil
}

// slimDown returns freed heap to the OS and resets this process's peak-RSS
// mark. It must run before every child is spawned: Linux seeds a child's
// ru_maxrss with the spawning process's own peak (the exec inherits the
// high-water mark of the address space it leaves), so a bench that has
// just generated a dataset would otherwise report its own footprint as the
// child's.
func slimDown() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

var peakResetFailed bool

func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil && !peakResetFailed {
		peakResetFailed = true
		fmt.Fprintf(os.Stderr, "bench: cannot reset peak RSS (%v): peak_rss_mb may include the bench's own footprint\n", err)
	}
}

// childUsage is what the kernel accounted to one finished child.
type childUsage struct {
	WallMs   float64
	CPUMs    float64
	MaxRSSMB float64
	Stderr   string // batch children only
}

func usageOf(ps *os.ProcessState, wall time.Duration) childUsage {
	u := childUsage{WallMs: float64(wall.Nanoseconds()) / 1e6}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.CPUMs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
		u.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// runChild runs one batch child to completion: wall time around the
// process (exec to exit), CPU and peak RSS from its rusage.
func runChild(ctx context.Context, bin string, args ...string) (childUsage, error) {
	resetPeakRSS()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childUsage{}, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	u := usageOf(cmd.ProcessState, wall)
	u.Stderr = stderr.String()
	return u, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is one running s3pgd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	waited bool
}

// startDaemon launches s3pgd on a free loopback port over spool and waits
// until /readyz answers 200. Graph recovery (snapshot load + WAL replay)
// happens before the listener opens, so "ready" includes it.
func startDaemon(ctx context.Context, bin, spool string) (*daemon, error) {
	addrFile := filepath.Join(filepath.Dir(spool), fmt.Sprintf("addr-%d", time.Now().UnixNano()))
	resetPeakRSS()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-spool", spool)
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = "http://" + string(bytes.TrimSpace(b))
			os.Remove(addrFile)
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("s3pgd did not write its address: %s", lastLine(d.stderr.String()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		if code, _, err := httpDo(httpClient, "GET", d.base+"/readyz", "", nil); err == nil && code == 200 {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("s3pgd not ready: %s", lastLine(d.stderr.String()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuMs reads the daemon's user+sys CPU so far from /proc/<pid>/stat.
func (d *daemon) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, clock ticks of 1/100 s.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable stat times")
	}
	return (ut + st) * 10, nil
}

// kill SIGKILLs the daemon and waits for it; the returned usage is the
// whole life of that process.
func (d *daemon) kill() childUsage {
	if d.waited {
		return childUsage{}
	}
	d.waited = true
	_ = d.cmd.Process.Kill() // already gone is fine: Wait reports it
	_ = d.cmd.Wait()         // a killed process always "fails"; only the usage matters
	return usageOf(d.cmd.ProcessState, 0)
}
