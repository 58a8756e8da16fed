package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// A shared virtual machine's speed drifts by tens of percent within
// minutes, and from one of its CPUs to another, as its neighbours' load
// changes; wall-clock metrics drift with it. The speed probe measures that drift from inside each run:
// on every CPU the run may use, a thread of its own runs a fixed kernel
// every probePeriod and times it in its own CPU time. The guest's
// scheduling does not count against a thread's CPU time, so the probe
// does not see the harness's or the daemon's load; the CPU running
// slower does. Time metrics are reported at reference speed — scaled
// by the probe's reading — and rates by the inverse.
//
// The host's slow stretches come and go within seconds, so the measured
// run is cut into one-second windows, each scaled by the probe readings
// taken inside it.

const probePeriod = 25 * time.Millisecond

// probeRef is what probeKernel takes on the reference machine, an Intel
// Xeon at 2.1 GHz with no neighbour load, in ns.
const probeRef = 19000.0

var probeSink atomic.Uint64

// probeKernel is about 20 µs of floating-point square roots and
// logarithms, and shares no code with the program under test. Of the
// kernels tried — integer division, branchy sorting, random access in
// L2 and in L3, and their geometric means — this one tracked the
// daemon's slowdowns best: over eight runs of each workload on a host
// whose unscaled p50 spread 8–57%, it brought every spread under 8%.
func probeKernel() {
	s := 0.0
	for i := 1; i < 2000; i++ {
		x := float64(i)
		s += math.Sqrt(x) * math.Log(x)
	}
	probeSink.Add(uint64(s))
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeSample is one reading of the probe on one CPU: that CPU's speed
// relative to the reference machine, above 1 when faster.
type probeSample struct {
	at    time.Time
	speed float64
}

// probe is a running speed probe, one thread per CPU.
type probe struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples [][]probeSample // per CPU
}

// startProbe starts a probe thread on each CPU the harness may run on.
func startProbe() *probe {
	cpus := []int{-1} // unpinned, if the CPUs cannot be read
	if m, err := getAffinity(); err == nil {
		cpus = cpus[:0]
		for c := 0; c < 64; c++ {
			if m&(1<<c) != 0 {
				cpus = append(cpus, c)
			}
		}
	}
	p := &probe{stop: make(chan struct{}), samples: make([][]probeSample, len(cpus))}
	for i, c := range cpus {
		p.wg.Add(1)
		go p.run(&p.samples[i], c)
	}
	return p
}

func (p *probe) run(out *[]probeSample, cpu int) {
	defer p.wg.Done()
	runtime.LockOSThread()
	if cpu >= 0 {
		all, err := getAffinity()
		one := cpuMask(1) << cpu
		if err == nil && setThreadAffinity(one) == nil {
			// The thread goes back to the pool only once it may run on
			// every CPU again; otherwise it ends with the goroutine.
			defer func() {
				if setThreadAffinity(all) == nil {
					runtime.UnlockOSThread()
				}
			}()
		}
	}
	t := time.NewTicker(probePeriod)
	defer t.Stop()
	for {
		c0 := threadCPU()
		probeKernel()
		*out = append(*out, probeSample{at: time.Now(), speed: probeRef / float64(threadCPU()-c0)})
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
	}
}

// finish stops the probe and returns its samples, per CPU.
func (p *probe) finish() [][]probeSample {
	close(p.stop)
	p.wg.Wait()
	return p.samples
}

// speed is the mean over the CPUs of each CPU's median reading: the
// daemons spread their work over every CPU they may use.
func speed(samples [][]probeSample) float64 {
	sum, n := 0.0, 0
	for _, cpu := range samples {
		if len(cpu) == 0 {
			continue
		}
		v := make([]float64, len(cpu))
		for i, s := range cpu {
			v[i] = s.speed
		}
		sum += median(v)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// window is the width of the windows a measured run is cut into.
const window = time.Second

// normalize scales a measured run that began at start to reference
// speed. The run is cut into windows, and each window's speed is read
// off the probe samples taken in it. A latency is scaled by the speed
// of the window its answer arrived in; the rate is the answers of the
// complete windows over the time those windows would have taken at
// reference speed. scaled holds each answer's scaled latency in ms, by
// sequence index.
func normalize(start time.Time, seconds int, lat []timing, samples [][]probeSample) (rate float64, scaled map[int]float64) {
	n := int(time.Duration(seconds) * time.Second / window)
	byWindow := make([][][]probeSample, n)
	for w := range byWindow {
		byWindow[w] = make([][]probeSample, len(samples))
	}
	for c, cpu := range samples {
		for _, s := range cpu {
			if w := int(s.at.Sub(start) / window); w < n {
				byWindow[w][c] = append(byWindow[w][c], s)
			}
		}
	}
	whole := speed(samples)
	speeds := make([]float64, n)
	refTime := 0.0
	for w := range speeds {
		speeds[w] = whole
		for _, cpu := range byWindow[w] {
			if len(cpu) > 0 {
				speeds[w] = speed(byWindow[w])
				break
			}
		}
		refTime += window.Seconds() * speeds[w]
	}
	scaled = make(map[int]float64, len(lat))
	answers := 0
	for _, t := range lat {
		w := int(t.done.Sub(start) / window)
		if w < n {
			answers++
		}
		scaled[t.idx] = float64(t.d) / 1e6 * speeds[min(w, n-1)]
	}
	return float64(answers) / refTime, scaled
}

// cpuMask is a set of CPUs, bit i for CPU i.
type cpuMask uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// setThreadAffinity confines the calling thread to the CPUs in m.
func setThreadAffinity(m cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return nil
}

// setAffinity confines every thread of process pid to the CPUs in m.
// Threads started later inherit the mask of the thread that starts
// them, so the loop ends once a pass finds no thread it has not pinned.
func setAffinity(pid int, m cpuMask) error {
	pinned := map[int]bool{}
	for {
		ents, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		more := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || pinned[tid] {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && !errors.Is(errno, syscall.ESRCH) {
				return fmt.Errorf("sched_setaffinity of thread %d: %w", tid, errno)
			}
			pinned[tid], more = true, true
		}
		if !more {
			return nil
		}
	}
}

// pinToOneCPU confines the harness to the first CPU it may run on, so
// that the daemons it spawns start there too, and returns the function
// that lets it run everywhere again.
func pinToOneCPU() (restore func(), err error) {
	all, err := getAffinity()
	if err != nil {
		return nil, err
	}
	one := all & -all
	if err := setAffinity(os.Getpid(), one); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		if err := setAffinity(os.Getpid(), all); err != nil {
			fmt.Fprintln(os.Stderr, "bench: restore CPU affinity:", err)
		}
	}, nil
}
