package main

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// pinning splits the CPUs this process may run on between the generator
// (the last one) and the daemon (all the others), so that the two never
// compete for a CPU and every run sees the same placement. Unpinned on the
// 2-CPU reference host, the daemon's CPU per packet read 12 or 16 µs
// depending on where the scheduler happened to put its threads. With fewer
// than two CPUs nothing is pinned.
type pinning struct {
	all    cpuMask
	daemon cpuMask
	gen    cpuMask
}

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func schedAffinity(trap uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

func newPinning() pinning {
	var p pinning
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &p.all); err != nil {
		return pinning{}
	}
	cpus := p.all.cpus()
	if len(cpus) < 2 {
		return pinning{}
	}
	last := cpus[len(cpus)-1]
	p.gen[last/64] = 1 << (last % 64)
	p.daemon = p.all
	p.daemon[last/64] &^= 1 << (last % 64)
	return p
}

func (p *pinning) active() bool { return p.gen != cpuMask{} }

func (p *pinning) String() string {
	if !p.active() {
		return "no CPU pinning (fewer than 2 CPUs, or affinity calls refused)"
	}
	return fmt.Sprintf("daemon pinned to CPUs %v, generator thread to CPU %v", p.daemon.cpus(), p.gen.cpus())
}

// generator confines the calling thread, which the caller has locked, to
// the generator's CPU and returns the function that lifts the restriction.
func (p *pinning) generator() func() { return p.confine(&p.gen) }

// forDaemon confines the calling thread to the daemon's CPUs for the
// duration of a fork: the child inherits the mask.
func (p *pinning) forDaemon() func() {
	runtime.LockOSThread()
	restore := p.confine(&p.daemon)
	return func() {
		restore()
		runtime.UnlockOSThread()
	}
}

func (p *pinning) confine(to *cpuMask) func() {
	if !p.active() || schedAffinity(syscall.SYS_SCHED_SETAFFINITY, to) != nil {
		return func() {}
	}
	return func() { _ = schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &p.all) } // best effort: the mask was valid when read
}
