package main

import (
	"os/exec"
	"syscall"
)

// setChildAttrs has the kernel kill the child if the benchmark dies
// without reaping it.
func setChildAttrs(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
