package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/sessiond from the module at root into out.
func buildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/sessiond")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/sessiond: %v\n%s", err, msg)
	}
	return nil
}

// daemon is a running sessiond, observed only from outside: its startup
// banner, its stderr log file and /proc/<pid>.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	logFile *os.File
}

// startDaemon execs bin with flags on an ephemeral loopback port and waits
// for the banner that names the bound address. stderr goes to a file, not
// a pipe, so a busy benchmark can never block the daemon's logging.
func startDaemon(bin string, flags []string, dir string) (*daemon, error) {
	logFile, err := os.CreateTemp(dir, "sessiond-*.log")
	if err != nil {
		return nil, err
	}
	args := append(append([]string(nil), flags...), "-listen", "127.0.0.1:0")
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	// The daemon serves until killed; make sure it dies with us.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, logPath: logFile.Name(), logFile: logFile}
	banner := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		banner <- line
		// Nothing else is printed to stdout; drain until exit so the
		// daemon can never block on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-banner:
		const prefix = "sessiond listening on "
		rest, ok := strings.CutPrefix(line, prefix)
		if f := strings.Fields(rest); ok && len(f) > 0 {
			d.addr = f[0]
			return d, nil
		}
		d.stop()
		return nil, fmt.Errorf("sessiond banner %q has no address", line)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("sessiond printed no banner within 10s")
	}
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	d.logFile.Close()
	os.Remove(d.logPath)
}

// procSnap is one reading of the daemon's /proc counters and log size.
type procSnap struct {
	cpuNS               int64 // CPU time of all threads
	syscr, syscw, wchar int64
	logBytes            int64
	hwmKB, threads      int64
}

func (d *daemon) snapshot() (procSnap, error) {
	var s procSnap
	dir := filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid))
	var err error
	if s.cpuNS, err = threadCPU(dir); err != nil {
		return s, err
	}
	ioStat, err := os.ReadFile(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	kv := procFields(ioStat)
	s.syscr, s.syscw, s.wchar = kv["syscr"], kv["syscw"], kv["wchar"]
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	kv = procFields(status)
	s.hwmKB, s.threads = kv["VmHWM"], kv["Threads"]
	fi, err := d.logFile.Stat()
	if err != nil {
		return s, err
	}
	s.logBytes = fi.Size()
	return s, nil
}

// threadCPU sums the CPU time of the process's threads from
// /proc/<pid>/task/*/schedstat, which counts nanoseconds. utime and stime
// in /proc/<pid>/stat count 10 ms ticks, too coarse for one round: a
// daemon at 0.15 cores runs under 20 ticks in a 1.25 s round.
func threadCPU(dir string) (int64, error) {
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/task/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// procFields parses "key: value [unit]" lines into integers.
func procFields(b []byte) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f := strings.Fields(v); len(f) > 0 {
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err == nil {
				out[strings.TrimSpace(k)] = n
			}
		}
	}
	return out
}

// logLines counts the newlines the daemon logged between two offsets.
func (d *daemon) logLines(from, to int64) (int64, error) {
	f, err := os.Open(d.logPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<16)
	var n int64
	r := io.NewSectionReader(f, from, to-from)
	for {
		k, err := r.Read(buf)
		n += int64(bytes.Count(buf[:k], []byte{'\n'}))
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
