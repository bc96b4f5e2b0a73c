package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procs owns every child process of a run, so that any exit path can stop
// them all and nothing keeps a listener open after dnsbench is gone.
type procs struct {
	mu       sync.Mutex
	live     map[*child]struct{}
	commands []string // full command line of every child, in start order
}

func newProcs() *procs { return &procs{live: make(map[*child]struct{})} }

// child is one running program under test.
type child struct {
	name string
	cmd  *exec.Cmd

	mu     sync.Mutex
	stdout []string
	stderr []string

	readers sync.WaitGroup
	exited  chan struct{}
	waitErr error
	hwmKB   atomic.Int64 // peak resident set seen in /proc/<pid>/status
}

// start launches argv in its own process group with stdout and stderr
// captured line by line; onStderr, when set, sees each stderr line as it
// arrives.
func (p *procs) start(name string, argv []string, onStderr func(string, time.Time)) (*child, error) {
	c := &child{name: name, exited: make(chan struct{})}
	c.cmd = exec.Command(argv[0], argv[1:]...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	outPipe, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errPipe, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.commands = append(p.commands, strings.Join(argv, " "))
	p.mu.Unlock()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p.mu.Lock()
	p.live[c] = struct{}{}
	p.mu.Unlock()
	c.readers.Add(2)
	go c.readLines(outPipe, &c.stdout, nil)
	go c.readLines(errPipe, &c.stderr, onStderr)
	go c.watchRSS()
	go func() {
		// Wait closes the pipes, so the readers must drain them first.
		c.readers.Wait()
		c.waitErr = c.cmd.Wait()
		p.mu.Lock()
		delete(p.live, c)
		p.mu.Unlock()
		close(c.exited)
	}()
	return c, nil
}

func (c *child) readLines(r io.Reader, into *[]string, hook func(string, time.Time)) {
	defer c.readers.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		at := time.Now()
		line := sc.Text()
		c.mu.Lock()
		*into = append(*into, line)
		c.mu.Unlock()
		if hook != nil {
			hook(line, at)
		}
	}
}

// watchRSS samples the child's peak resident set until it exits. The
// kernel's own figure (rusage maxrss) will not do: a child created by
// vfork starts life inside its parent's address space, so its maxrss is
// never below dnsbench's.
func (c *child) watchRSS() {
	path := "/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status"
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if data, err := os.ReadFile(path); err == nil {
			if i := bytes.Index(data, []byte("VmHWM:")); i >= 0 {
				f := bytes.Fields(data[i+6:])
				if kb, err := strconv.ParseInt(string(f[0]), 10, 64); err == nil && kb > c.hwmKB.Load() {
					c.hwmKB.Store(kb)
				}
			}
		}
		select {
		case <-c.exited:
			return
		case <-t.C:
		}
	}
}

// lines returns a copy of the captured stdout and stderr.
func (c *child) lines() (stdout, stderr []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.stdout...), append([]string(nil), c.stderr...)
}

// awaitLine polls the captured output until a line containing substr
// appears, the child exits, or the timeout passes.
func (c *child) awaitLine(substr string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		out, errl := c.lines()
		for _, l := range append(out, errl...) {
			if strings.Contains(l, substr) {
				return l, nil
			}
		}
		select {
		case <-c.exited:
			return "", fmt.Errorf("%s exited before printing %q: %v\n%s", c.name, substr, c.waitErr, strings.Join(errl, "\n"))
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not print %q within %v", c.name, substr, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// wait blocks until the child has exited and returns its exit error.
func (c *child) wait(timeout time.Duration) error {
	select {
	case <-c.exited:
		return c.waitErr
	case <-time.After(timeout):
		c.kill()
		<-c.exited
		return fmt.Errorf("%s: killed after %v", c.name, timeout)
	}
}

// signalAndWait sends sig and waits for the child to exit; a child still
// running ten seconds later is killed, which is an error.
func (c *child) signalAndWait(sig syscall.Signal) error {
	_ = c.cmd.Process.Signal(sig)
	return c.wait(10 * time.Second)
}

func (c *child) kill() {
	// Negative pid: the whole process group the child leads.
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
}

// killAll stops every child still running and waits for each.
func (p *procs) killAll() {
	p.mu.Lock()
	var cs []*child
	for c := range p.live {
		cs = append(cs, c)
	}
	p.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
	for _, c := range cs {
		<-c.exited
	}
}

// cpu is the child's user+system CPU time so far, read from
// /proc/<pid>/stat (USER_HZ ticks of 10 ms, all threads).
func (c *child) cpu() (time.Duration, error) {
	return procCPU(c.cmd.Process.Pid)
}

func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// usage is what the kernel accounted to an exited child.
type usage struct {
	cpu   time.Duration
	rssMB float64
}

// rusage returns the exited child's total CPU time and the peak RSS that
// watchRSS saw.
func (c *child) rusage() usage {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), rssMB: float64(c.hwmKB.Load()) / 1024}
}

// selfCPU is dnsbench's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
