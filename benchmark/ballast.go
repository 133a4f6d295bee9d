package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// Ballast keeps every CPU of the machine from going idle while a workload is
// measured, with one child process per CPU that spins in the kernel's idle
// scheduling class (SCHED_IDLE): it runs only when the CPU has nothing else to
// do and is preempted the moment the workload wants the CPU, so it takes no
// time from it, and as another process its CPU time is not in the benchmark's
// getrusage figures.
//
// Why: the build host is a 2-vCPU guest on a shared machine, and a guest that
// lets a vCPU idle is slowed by its neighbours far more than one that keeps
// both busy. Measured on serial_yz (one busy thread, one idle vCPU) with the
// ballast switched on and off every 8 s for three minutes: step medians
// 81.6–87.0 ms in the nine stretches with ballast, 85.5–104.2 ms in the nine
// without, every stretch with ballast faster than every one without. The
// workloads that never idle (yz_p8, ca_p8) were the ones the neighbours could
// not move before, and are not changed by it.

// ballastArg is the argument that makes this program a ballast child.
const ballastArg = "-ballast-child"

// schedIdle is Linux's SCHED_IDLE policy number.
const schedIdle = 5

// ballastChild is the child: it spins in the idle class until its standard
// input is closed, which happens when the parent stops it or dies.
func ballastChild() int {
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	param := struct{ priority int32 }{0}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		// At normal priority it would compete with the workload: do without.
		fmt.Fprintln(os.Stderr, "benchmark: ballast: sched_setscheduler(SCHED_IDLE):", errno)
		return 1
	}
	for x := 0; ; x++ {
	}
}

// startBallast starts one ballast child per CPU and returns the function that
// stops them and waits until each has ended. Without ballast (a child cannot
// be started) the run goes on and is only noisier; the reason goes to log.
func startBallast(log io.Writer) (stop func()) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(log, "benchmark: no ballast:", err)
		return func() {}
	}
	type child struct {
		cmd   *exec.Cmd
		stdin io.Closer
	}
	var children []child
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, ballastArg)
		cmd.Stderr = log
		stdin, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			fmt.Fprintln(log, "benchmark: no ballast:", err)
			break
		}
		children = append(children, child{cmd, stdin})
	}
	return func() {
		for _, c := range children {
			c.stdin.Close()
			c.cmd.Process.Kill()
		}
		for _, c := range children {
			c.cmd.Wait()
		}
	}
}
