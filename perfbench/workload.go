package main

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro"
)

const pageSize = 4096

// workload is one single-threaded, closed-loop application: each step
// starts when the previous one returns, and every `every` steps ends with a
// checkpoint request. A seeded generator produces every byte the
// application stores; the runtime sees only those bytes.
type workload struct {
	name  string
	why   string
	pages int // working set in pages
	cow   int // copy-on-write buffer in pages
	steps int // steps per round
	every int // a checkpoint every this many steps
	// work and fillWork are the CPU time of the application's computation
	// before each store of a step and of the initial fill.
	work, fillWork time.Duration
	dirty          string
	codec          aickpt.Compression
	tiered         bool
	policy         aickpt.CompactionPolicy
	reload         bool // the closing restore loads the image into a fresh runtime
	// restores repeats the closing restore on the same chain so each round
	// times about 0.1 s of restore work; restore_s is the time of one.
	restores int
	fill     func(a *app)
	step     func(a *app, i int)
}

// The sizes keep each workload's disk writes near 10 MB/s: a shared
// virtual disk slows down under sustained writes, which would make later
// runs slower than earlier ones. The application's computation before each
// store (work in a step, fillWork in the initial fill) sets how often it
// checkpoints, as in a real solver, and keeps set-up mostly CPU time.
var workloads = []*workload{
	{
		name: "stencil",
		why: "CM1-like sweep of 256 pages (1 MiB, 4x the 256 KiB COW buffer), a band of every page changes per step; " +
			"flate + dedup on one dir: COW/WAIT, flush order, hashing, DEFLATE",
		pages: 256, cow: 64, steps: 48, every: 8,
		work: 120 * time.Microsecond, fillWork: 500 * time.Microsecond,
		dirty: "256 pages (all) per epoch",
		codec: aickpt.CompressionFlate, restores: 2,
		fill: stencilFill, step: stencilStep,
	},
	{
		name: "tiers",
		why: "MILC-like random rewrites of 1/8 of 256 pages per step into L1 + peer k=4 m=2 + PFS; " +
			"drain, erasure encode and k-of-n restore after L1 wipe and a lost peer node",
		pages: 256, cow: 64, steps: 40, every: 2, work: time.Millisecond, fillWork: time.Millisecond,
		dirty:  "about 60 pages per epoch (2 steps of 32 random pages)",
		tiered: true, restores: 16,
		fill: randomFill, step: tiersStep,
	},
	{
		name: "restart",
		why: "80 tiny epochs of 8 page writes (<< 64-page COW buffer) over 128 pages, half written back so they dedup; " +
			"seal+fsync, compaction (depth 32), restart into a fresh runtime",
		pages: 128, cow: 64, steps: 80, every: 1, work: 3500 * time.Microsecond, fillWork: 3500 * time.Microsecond,
		dirty:  "8 page writes per epoch, half of them dedup",
		codec:  aickpt.CompressionZero,
		policy: aickpt.CompactionPolicy{MaxChainDepth: 32},
		reload: true, restores: 32,
		fill: restartFill, step: restartStep,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// app is the application side of a round: the protected region, the
// application's own copy of every byte it stored (the reference every
// restore is checked against) and its seeded generator.
type app struct {
	w      *workload
	rt     *aickpt.Runtime
	region *aickpt.Region
	state  []byte
	rng    *rand.Rand
	phase  []uint64

	// restart keeps the state as of the last checkpoint to write it back.
	saved   []byte
	written []int

	sink uint64 // result of the application's computation

	clk       *clock
	tr        *tracer // nil unless the round is traced
	epoch     uint64  // newest requested checkpoint epoch
	touched   []uint64
	ckptStart map[uint64]time.Duration
}

func newApp(w *workload, seed uint64, clk *clock, tr *tracer) *app {
	a := &app{
		w:         w,
		state:     make([]byte, w.pages*pageSize),
		rng:       rand.New(rand.NewPCG(seed, 0x70657266)),
		phase:     make([]uint64, w.pages),
		clk:       clk,
		tr:        tr,
		ckptStart: map[uint64]time.Duration{},
	}
	for p := range a.phase {
		a.phase[p] = a.rng.Uint64() & 1023
	}
	if tr != nil {
		a.touched = make([]uint64, w.pages)
	}
	return a
}

// setUp allocates the region, fills it and takes the first, full
// checkpoint, returning once it is durable.
func (a *app) setUp(rt *aickpt.Runtime) {
	a.rt = rt
	a.region = rt.MallocProtected(a.w.pages * pageSize)
	a.w.fill(a)
	a.checkpoint()
	rt.WaitIdle()
}

// runSteps runs the fixed application loop and returns each step's wall
// time, a checkpoint request included; it returns once the last
// checkpoint is durable.
func (a *app) runSteps(checkpoints bool) []time.Duration {
	steps := make([]time.Duration, a.w.steps)
	for i := range steps {
		start := a.clk.now()
		a.w.step(a, i)
		if checkpoints && (i+1)%a.w.every == 0 {
			a.checkpoint()
		}
		steps[i] = a.clk.now() - start
	}
	a.rt.WaitIdle()
	return steps
}

func (a *app) page(p int) []byte { return a.state[p*pageSize : (p+1)*pageSize] }

// store copies state[p*pageSize+off : +n] into the region. In traced rounds
// the first store to a page after a checkpoint is timed: it is the store
// the runtime traps (COW copy, WAIT on an in-flight page, or avoided).
func (a *app) store(p, off, n int) {
	at := p*pageSize + off
	if a.tr == nil || a.touched[p] == a.epoch {
		a.region.Write(at, a.state[at:at+n])
		return
	}
	a.touched[p] = a.epoch
	start := a.clk.now()
	a.region.Write(at, a.state[at:at+n])
	a.tr.span(spanFirstWrite, a.epoch, start, a.clk.now())
}

// checkpoint requests a checkpoint, recording when the request was made.
func (a *app) checkpoint() {
	if a.saved != nil {
		for _, p := range a.written {
			copy(a.saved[p*pageSize:(p+1)*pageSize], a.page(p))
		}
		a.written = a.written[:0]
	}
	a.epoch++
	start := a.clk.now()
	a.rt.Checkpoint()
	a.ckptStart[a.epoch] = start
	if a.tr != nil {
		a.tr.span(spanCheckpoint, a.epoch, start, a.clk.now())
	}
}

// compute stands in for the application's arithmetic between stores: a
// dependent chain of integer mixes the compiler cannot elide, run until
// the application's thread has spent d of CPU time on it. A budget of
// CPU time rather than of iterations keeps the application's own work the
// same however fast the shared host's cores happen to run (the same loop
// ran 20% faster or slower from one run to the next on a shared 2-vCPU
// host), while time the thread spends preempted, by commit workers, the
// garbage collector or other processes, still lengthens the step.
func (a *app) compute(d time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	end := threadCPU() + d
	x := a.sink
	for threadCPU() < end {
		for i := 0; i < 1024; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	a.sink = x
}

// threadCPU returns the CPU time the calling OS thread has used. Without
// that clock the application's computation has no measure, so it panics.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("perfbench: thread CPU clock: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

func (a *app) putFloat(p, k int, v uint64) {
	binary.LittleEndian.PutUint64(a.state[p*pageSize+8*k:], v)
}

const (
	floatsPerPage = pageSize / 8
	bandFloats    = 64 // a stencil step changes 64 of a page's 512 float64s
)

// smooth is the DEFLATE-friendly field: small dyadic values whose float64
// encodings share most bytes with their neighbours.
func smooth(p, k, i int, phase uint64) uint64 {
	v := float64((uint64(p*3+k+i)+phase)&1023) * 0.25
	return math.Float64bits(v)
}

// noisy reports whether stencil page p holds seeded noise (one in four).
func noisy(p int) bool { return p%4 == 3 }

func stencilFill(a *app) {
	for p := 0; p < a.w.pages; p++ {
		a.compute(a.w.fillWork)
		for k := 0; k < floatsPerPage; k++ {
			if noisy(p) {
				a.putFloat(p, k, a.rng.Uint64())
			} else {
				a.putFloat(p, k, smooth(p, k, 0, a.phase[p]))
			}
		}
		a.store(p, 0, pageSize)
	}
}

// stencilStep sweeps every page in order and changes one band of each.
func stencilStep(a *app, i int) {
	lo := (i % (floatsPerPage / bandFloats)) * bandFloats
	for p := 0; p < a.w.pages; p++ {
		a.compute(a.w.work)
		for k := lo; k < lo+bandFloats; k++ {
			if noisy(p) {
				a.putFloat(p, k, a.rng.Uint64())
			} else {
				a.putFloat(p, k, smooth(p, k, i+1, a.phase[p]))
			}
		}
		a.store(p, 8*lo, 8*bandFloats)
	}
}

func (a *app) randomPage(p int) {
	for k := 0; k < floatsPerPage; k++ {
		a.putFloat(p, k, a.rng.Uint64())
	}
}

func randomFill(a *app) {
	for p := 0; p < a.w.pages; p++ {
		a.compute(a.w.fillWork)
		a.randomPage(p)
		a.store(p, 0, pageSize)
	}
}

// tiersStep rewrites a seeded random eighth of the pages with
// incompressible bytes.
func tiersStep(a *app, _ int) {
	for j := 0; j < a.w.pages/8; j++ {
		p := a.rng.IntN(a.w.pages)
		a.compute(a.w.work)
		a.randomPage(p)
		a.store(p, 0, pageSize)
	}
}

// restartFill leaves every other page zero, so the Zero codec has pages
// to elide.
func restartFill(a *app) {
	for p := 0; p < a.w.pages; p++ {
		a.compute(a.w.fillWork)
		if p%2 == 0 {
			a.randomPage(p)
		}
		a.store(p, 0, pageSize)
	}
	a.saved = append([]byte(nil), a.state...)
}

// restartStep rewrites eight random pages: half get the bytes they held at
// the last checkpoint back (a dedup hit), half get fresh noise.
func restartStep(a *app, _ int) {
	for j := 0; j < 8; j++ {
		p := a.rng.IntN(a.w.pages)
		a.compute(a.w.work)
		if a.rng.Uint64()&1 == 0 {
			copy(a.page(p), a.saved[p*pageSize:(p+1)*pageSize])
		} else {
			a.randomPage(p)
		}
		a.store(p, 0, pageSize)
		a.written = append(a.written, p)
	}
}
