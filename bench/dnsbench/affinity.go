package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// On the serve workloads the load generator and the servers get disjoint
// CPUs: the generator the first half of the CPUs dnsbench may use, the
// servers the rest. Sharing them made every number depend on where the
// kernel happened to place the threads of three processes, and let a late
// generator starve the server it was measuring. A server started on its
// CPUs sees only them, so its own defaults (GOMAXPROCS, sockets) follow.

type cpuMask [16]uint64 // 1024 CPUs

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func (m cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m[0])))
	if e != 0 {
		return e
	}
	return nil
}

// cpuSplit returns the generator's and the servers' CPUs. With a single
// CPU both get it.
func cpuSplit() (gen, sut []int) {
	m, err := getAffinity(0)
	all := m.cpus()
	if err != nil || len(all) < 2 {
		return all, all
	}
	return all[:len(all)/2], all[len(all)/2:]
}

// pinSelf moves every thread of dnsbench onto cpus (threads started later
// inherit the mask) and sizes the Go scheduler to match. It returns a
// function that undoes both.
func pinSelf(cpus []int) (undo func(), err error) {
	old, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	if err := setAllThreads(maskOf(cpus)); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(2 * len(cpus))
	return func() {
		_ = setAllThreads(old)
		runtime.GOMAXPROCS(procs)
	}, nil
}

func setAllThreads(m cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call.
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// startOn starts a child confined to cpus: the child inherits the mask of
// the thread that forks it, so that thread takes the mask for the moment
// of the fork.
func (p *procs) startOn(cpus []int, name string, argv []string) (*child, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	if err := setAffinity(0, maskOf(cpus)); err != nil {
		return nil, err
	}
	defer setAffinity(0, old)
	return p.start(name, argv, nil)
}
