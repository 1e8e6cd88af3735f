package main

import (
	"fmt"
	"os"
	"syscall"
)

// redirectRequestLog points file descriptor 2 at path for the rest of the
// run. The servers log every request to standard error, as in production;
// the benchmark keeps those lines out of its own output. The returned
// function restores the original standard error.
func redirectRequestLog(path string) (func(), error) {
	//sslint:ignore atomicwrite the request log is a throwaway run artifact, not durable state
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("request log: %w", err)
	}
	saved, err := syscall.Dup(2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("request log: %w", err)
	}
	if err := syscall.Dup3(int(f.Fd()), 2, 0); err != nil {
		f.Close()
		syscall.Close(saved)
		return nil, fmt.Errorf("request log: %w", err)
	}
	return func() {
		_ = syscall.Dup3(saved, 2, 0)
		syscall.Close(saved)
		f.Close()
	}, nil
}
