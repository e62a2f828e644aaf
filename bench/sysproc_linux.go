package main

import "syscall"

// childAttr makes the kernel kill a child server when the harness
// itself dies without running its cleanup — a fatal runtime error, or a
// SIGKILL from whoever runs the benchmark.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
