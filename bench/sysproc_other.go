//go:build !linux

package main

import "syscall"

// childAttr has no parent-death signal to offer outside Linux; the
// harness's own cleanup is the only line of defence there.
func childAttr() *syscall.SysProcAttr { return nil }
