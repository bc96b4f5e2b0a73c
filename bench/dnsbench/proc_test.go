package main

import (
	"syscall"
	"testing"
	"time"
)

// TestKillAllLeavesNoChild: whatever a run started is gone, with its whole
// process group, once killAll returns.
func TestKillAllLeavesNoChild(t *testing.T) {
	p := newProcs()
	c, err := p.start("sh", []string{"sh", "-c", "sleep 60 & sleep 60"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pgid := c.cmd.Process.Pid
	done := make(chan struct{})
	go func() { p.killAll(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("killAll did not return")
	}
	if len(p.live) != 0 {
		t.Errorf("%d children still registered", len(p.live))
	}
	// The group's background sleep must be gone too (ESRCH), at the latest
	// once init has reaped it.
	deadline := time.Now().Add(2 * time.Second)
	for syscall.Kill(-pgid, 0) == nil {
		if time.Now().After(deadline) {
			t.Fatal("a process of the child's group survived killAll")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
