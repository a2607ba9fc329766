package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// The benchmark's own bulk buffers (spans, per-call latencies) are mapped
// outside the Go heap. Client and server share the heap, and a heap grown
// by the benchmark would make the garbage collector run less often than it
// does for the server alone, which changes what is measured. T must hold
// no pointers: the collector does not scan this memory.

// mapped returns a zeroed slice of n elements outside the Go heap.
func mapped[T any](n int) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d-element buffer: %w", n, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), nil
}

// unmap releases a slice mapped returned; it must no longer be used.
func unmap[T any](s []T) error {
	if cap(s) == 0 {
		return nil
	}
	s = s[:cap(s)]
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0]))))
}
