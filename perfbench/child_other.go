//go:build !linux

package main

import "os/exec"

func setChildAttrs(*exec.Cmd) {}
