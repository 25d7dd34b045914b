package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On this shared box a virtual CPU that goes idle halts, and how long the
// host takes to wake it again varies in episodes of tens of seconds — by
// enough to move a closed loop that sleeps and wakes thousands of times a
// second by 15 % between otherwise identical runs (two spinning threads
// never see it). The idle keeper takes that out of the measurement: one
// child process per CPU spins under SCHED_IDLE, the scheduling class that
// runs only when nothing else wants the CPU and is preempted the moment
// anything does, so the CPUs never halt and the program under test still
// gets every cycle it asks for.

const (
	spinArg   = "--idle-spin" // hidden first argument of a keeper child
	schedIdle = 5             // SCHED_IDLE, linux/sched.h
)

// spin is a keeper child's whole life.
func spin() {
	runtime.GOMAXPROCS(1)
	param := struct{ priority int32 }{0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// No SCHED_IDLE here: the lowest nice level is the next best thing.
		syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) //nolint:errcheck // best effort
	}
	for x := uint64(1); ; x++ {
		if x == 0 {
			runtime.Gosched() // unreachable in practice; keeps the loop from being elided
		}
	}
}

type idleKeeper struct{ children []*exec.Cmd }

// startIdleKeeper starts one spinner per CPU. The children die with this
// process (Pdeathsig) even if it is killed.
func startIdleKeeper() (*idleKeeper, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	k := &idleKeeper{}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(exe, spinArg)
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			k.stop()
			return nil, fmt.Errorf("idle keeper: %w", err)
		}
		k.children = append(k.children, c)
	}
	return k, nil
}

// stop kills every child and waits until each has ended.
func (k *idleKeeper) stop() {
	for _, c := range k.children {
		c.Process.Kill() //nolint:errcheck // already gone is fine
		c.Wait()         //nolint:errcheck // killed: the exit status is the signal
	}
	k.children = nil
}
