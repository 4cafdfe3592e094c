//go:build rlpmbench

package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// placement is where the benchmark runs. The generator and every serving
// process share one CPU, the last this process may use. On the shared
// 2-vCPU reference box, keeping both vCPUs busy drew 20–40% steal from
// the hypervisor within a minute, and a two-CPU closed loop, which stalls
// whenever either vCPU is descheduled, lost up to two thirds of its
// throughput for seconds at a time. With one vCPU busy, steal stayed near
// 2% and one-second intervals of a run agreed within about 10%. Children
// inherit the affinity of the thread that forks them, and every thread of
// this process is pinned, so the serving processes start on the same CPU
// and size GOMAXPROCS to it.
type placement struct {
	nproc int // CPUs this process may use at start: the worker count
	cpu   int // the CPU everything runs on
}

// cpuSet is a sched_setaffinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func getAffinity() ([]int, error) {
	var set cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	var cpus []int
	for c := 0; c < len(set)*64; c++ {
		if set[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// setAffinity pins thread tid to cpu.
func setAffinity(tid, cpu int) error {
	var set cpuSet
	set[cpu/64] |= 1 << (cpu % 64)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// place pins every thread of this process to the last CPU it may use.
// Call it before starting goroutines.
func place() (placement, error) {
	cpus, err := getAffinity()
	if err != nil {
		return placement{}, err
	}
	if len(cpus) == 0 {
		return placement{}, fmt.Errorf("sched_getaffinity: no CPU")
	}
	p := placement{nproc: len(cpus), cpu: cpus[len(cpus)-1]}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, p.cpu); err != nil {
			return p, err
		}
	}
	runtime.GOMAXPROCS(1)
	return p, nil
}
