package sim_test

// Scenario-program harness: randomized concurrent programs run on the
// kernel, recording event traces, final virtual times, RNG draw sequences
// and failures.
//
// A scenario program is a tiny straight-line concurrent program: a set of
// shared primitives (channels, resources, signals, conds, wait groups) and
// per-process scripts of kernel operations. Programs are decoded from a
// compact byte string — the same decoder serves the seeded random golden
// corpus (TestDiffRandomPrograms), the checked-in fuzz corpus and
// FuzzKernelScenario — so every program the fuzzer can invent is also a
// program the golden suite can replay. The interpreter runs each script
// either as a chain of step closures or as a record with a program counter
// and steps bound once, chosen per process, each waiting operation its
// *Then form; the flavour tests require both forms, alone and interleaved,
// to produce the same trace.

import (
	"fmt"

	"repro/internal/sim"
)

// ---------------------------------------------------------------------------
// Program representation and byte decoder

type opcode int

const (
	opSleep opcode = iota
	opYield
	opPut
	opGet
	opTryGet
	opClose
	opAcquire
	opRelease
	opSigWait
	opSigFire
	opCondWait
	opNotifyOne
	opNotifyAll
	opWGDone
	opWGWait
	opSpawn
	opRand
	opPanic
	numOpcodes
)

var opNames = [...]string{
	"sleep", "yield", "put", "get", "tryget", "close", "acq", "rel",
	"sigwait", "sigfire", "condwait", "notify1", "notifyN",
	"wgdone", "wgwait", "spawn", "rand", "panic",
}

type instr struct {
	op   opcode
	a, b int
	d    float64
}

func (in instr) String() string {
	return fmt.Sprintf("%s a=%d b=%d d=%g", opNames[in.op], in.a, in.b, in.d)
}

// prog is one scenario: shared primitives plus per-process scripts.
// scripts[0:roots] are spawned before Run; the rest only run if some script
// spawns them (spawn targets always point at higher indices, so the spawn
// graph is a DAG and the process count is finite).
type prog struct {
	chanCaps []int // one channel per entry, with this buffer capacity
	resCaps  []int
	nSigs    int
	nConds   int
	wgAdds   []int // one wait group per entry, Add()ed before Run
	scripts  [][]instr
	roots    int
	horizon  float64 // <0: run to completion
}

func (p prog) String() string {
	s := fmt.Sprintf("chans=%v res=%v sigs=%d conds=%d wgs=%v roots=%d horizon=%g\n",
		p.chanCaps, p.resCaps, p.nSigs, p.nConds, p.wgAdds, p.roots, p.horizon)
	for i, sc := range p.scripts {
		s += fmt.Sprintf("  script %d:\n", i)
		for _, in := range sc {
			s += "    " + in.String() + "\n"
		}
	}
	return s
}

type cursor struct {
	data []byte
	pos  int
}

// next returns the next byte, or 0 once the input is exhausted (so every
// byte string decodes to some program).
func (c *cursor) next() int {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b)
}

const (
	maxScripts       = 6
	maxInstrs        = 12
	maxSpawnsPerProc = 2
	sleepQuantum     = 0.25
	horizonQuantum   = 0.75
)

// decodeProgram turns an arbitrary byte string into a valid, finite
// scenario program. The mapping is total: every input decodes to something,
// and small inputs decode to small programs. Decoded programs may still
// panic at run time (close of a closed channel, WaitGroup counter below
// zero, an explicit panic op) — deliberately so: failures are part of the
// pinned trace too.
func decodeProgram(data []byte) prog {
	c := &cursor{data: data}
	var p prog
	for i, n := 0, c.next()%3; i < n; i++ {
		p.chanCaps = append(p.chanCaps, c.next()%3)
	}
	for i, n := 0, c.next()%3; i < n; i++ {
		p.resCaps = append(p.resCaps, 1+c.next()%2)
	}
	p.nSigs = c.next() % 2
	p.nConds = c.next() % 2
	for i, n := 0, c.next()%2; i < n; i++ {
		p.wgAdds = append(p.wgAdds, 1+c.next()%3)
	}
	ns := 1 + c.next()%maxScripts
	p.roots = 1 + c.next()%ns
	if h := c.next() % 8; h == 0 {
		p.horizon = -1
	} else {
		p.horizon = float64(h) * horizonQuantum
	}
	for s := 0; s < ns; s++ {
		n := c.next() % (maxInstrs + 1)
		spawns := 0
		held := make([]int, len(p.resCaps))
		var sc []instr
		for j := 0; j < n; j++ {
			in := instr{op: opcode(c.next() % int(numOpcodes))}
			switch in.op {
			case opSleep:
				in.d = float64(c.next()%9) * sleepQuantum
			case opPut:
				if len(p.chanCaps) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.chanCaps)
				in.b = c.next() % 100
			case opGet, opTryGet, opClose:
				if len(p.chanCaps) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.chanCaps)
			case opAcquire, opRelease:
				if len(p.resCaps) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.resCaps)
				// A release that cannot be statically paired with an earlier
				// acquire in this script becomes an acquire: "release of
				// idle resource" aborts would otherwise dominate the random
				// corpus. (Held units are deliberately NOT auto-released at
				// script end: leaked units exercise the deadlock-kill path.)
				if in.op == opRelease && held[in.a] == 0 {
					in.op = opAcquire
				}
				if in.op == opAcquire {
					held[in.a]++
				} else {
					held[in.a]--
				}
			case opSigWait, opSigFire:
				if p.nSigs == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % p.nSigs
			case opCondWait, opNotifyOne, opNotifyAll:
				if p.nConds == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % p.nConds
			case opWGDone, opWGWait:
				if len(p.wgAdds) == 0 {
					in.op = opYield
					break
				}
				in.a = c.next() % len(p.wgAdds)
			case opSpawn:
				if s+1 >= ns || spawns >= maxSpawnsPerProc {
					in.op = opYield
					break
				}
				in.a = s + 1 + c.next()%(ns-s-1)
				spawns++
			case opPanic:
				// Panics end the whole simulation, so keep them rare: only
				// a doubly-confirmed byte panics, anything else yields.
				if c.next()%16 != 0 {
					in.op = opYield
				}
			}
			sc = append(sc, in)
		}
		p.scripts = append(p.scripts, sc)
	}
	return p
}

// ---------------------------------------------------------------------------
// Trace recorder and shared log formats

type recorder struct{ lines []string }

func (r *recorder) addf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// Log-line helpers, one per operation.
func logSlept(r *recorder, name string, d, now float64) { r.addf("%s slept %.9g @%.9g", name, d, now) }
func logYield(r *recorder, name string, now float64)    { r.addf("%s yield @%.9g", name, now) }
func logPut(r *recorder, name string, ch, v int, now float64) {
	r.addf("%s put c%d=%d @%.9g", name, ch, v, now)
}
func logGot(r *recorder, name string, ch, v int, ok bool, now float64) {
	r.addf("%s got c%d=%d,%t @%.9g", name, ch, v, ok, now)
}
func logTryGet(r *recorder, name string, ch, v int, ok bool, now float64) {
	r.addf("%s tryget c%d=%d,%t @%.9g", name, ch, v, ok, now)
}
func logClose(r *recorder, name string, ch int, now float64) {
	r.addf("%s close c%d @%.9g", name, ch, now)
}
func logAcq(r *recorder, name string, res int, now float64) {
	r.addf("%s acq r%d @%.9g", name, res, now)
}
func logRel(r *recorder, name string, res int, now float64) {
	r.addf("%s rel r%d @%.9g", name, res, now)
}
func logSigWait(r *recorder, name string, s int, now float64) {
	r.addf("%s sigwait g%d @%.9g", name, s, now)
}
func logSigFire(r *recorder, name string, s int, now float64) {
	r.addf("%s sigfire g%d @%.9g", name, s, now)
}
func logCondWait(r *recorder, name string, c int, now float64) {
	r.addf("%s condwait d%d @%.9g", name, c, now)
}
func logNotify(r *recorder, name, kind string, c int, now float64) {
	r.addf("%s %s d%d @%.9g", name, kind, c, now)
}
func logWGDone(r *recorder, name string, w int, now float64) {
	r.addf("%s wgdone w%d @%.9g", name, w, now)
}
func logWGWait(r *recorder, name string, w int, now float64) {
	r.addf("%s wgwait w%d @%.9g", name, w, now)
}
func logSpawn(r *recorder, name, child string, now float64) {
	r.addf("%s spawn %s @%.9g", name, child, now)
}
func logRand(r *recorder, name string, v int64, now float64) {
	r.addf("%s rand %d @%.9g", name, v, now)
}
func logEnd(r *recorder, name string, now float64) { r.addf("%s end @%.9g", name, now) }

// killPrefix tags the golden traces' lines for a process killed at
// shutdown. The traces were recorded when processes were coroutines that
// logged their kill while unwinding; a process now holds no stack and is
// dropped without running anything, so comparisons filter these lines.
const killPrefix = "K "

func stripKills(lines []string) []string {
	out := make([]string, 0, len(lines))
	for _, l := range lines {
		if len(l) >= len(killPrefix) && l[:len(killPrefix)] == killPrefix {
			continue
		}
		out = append(out, l)
	}
	return out
}

// ---------------------------------------------------------------------------
// Interpreter

// flavor decides, per spawned process index, which form the process
// takes, so one program can run both forms interleaved on the same kernel
// and the same wait queues.
type flavor func(spawnIdx int) bool // true: record process

func allChain(int) bool      { return false }
func allRecord(int) bool     { return true }
func alternating(i int) bool { return i%2 == 0 }

type runner struct {
	p      prog
	k      *sim.Kernel
	rec    *recorder
	chans  []*sim.Chan[int]
	ress   []*sim.Resource
	sigs   []*sim.Signal
	conds  []*sim.Cond
	wgs    []*sim.WaitGroup
	spawnN int
	fl     flavor
}

// runProg executes p on a kernel seeded with kernelSeed, every process a
// closure chain, and returns the trace.
func runProg(p prog) []string { return runProgAs(p, allChain) }

// runProgAs executes p with each process's form chosen by fl and returns
// the trace. The final line records the kernel's end time and error, so
// those are compared too.
func runProgAs(p prog, fl flavor) []string {
	k := sim.NewKernel(kernelSeed)
	r := &runner{p: p, k: k, rec: &recorder{}, fl: fl}
	for _, c := range p.chanCaps {
		r.chans = append(r.chans, sim.NewChan[int](k, c))
	}
	for _, c := range p.resCaps {
		r.ress = append(r.ress, sim.NewResource(k, c))
	}
	for i := 0; i < p.nSigs; i++ {
		r.sigs = append(r.sigs, sim.NewSignal(k))
	}
	for i := 0; i < p.nConds; i++ {
		r.conds = append(r.conds, sim.NewCond(k))
	}
	for _, n := range p.wgAdds {
		w := sim.NewWaitGroup(k)
		w.Add(n)
		r.wgs = append(r.wgs, w)
	}
	for s := 0; s < p.roots; s++ {
		r.spawn(s)
	}
	err := k.RunUntil(sim.Time(p.horizon))
	r.rec.addf("final now=%.9g err=%v", float64(k.Now()), err)
	return r.rec.lines
}

func (r *runner) spawn(si int) string {
	name := fmt.Sprintf("p%d.s%d", r.spawnN, si)
	record := r.fl(r.spawnN)
	r.spawnN++
	if record {
		rp := &recProc{r: r, si: si, name: name}
		rp.resume, rp.got = rp.resumeStep, rp.gotStep
		r.k.SpawnStep(name, rp.run)
	} else {
		r.k.SpawnStep(name, r.stepAt(si, 0, name))
	}
	return name
}

// stepAt builds the continuation that executes script si from instruction i
// onward: the straight-line script becomes a chain of Step closures, each
// blocking operation turning into its *Then form.
func (r *runner) stepAt(si, i int, name string) sim.Step {
	return func(e *sim.Env) sim.Cont {
		sc := r.p.scripts[si]
		if i >= len(sc) {
			logEnd(r.rec, name, float64(e.Now()))
			return sim.Done()
		}
		in := sc[i]
		next := r.stepAt(si, i+1, name)
		switch in.op {
		case opSleep:
			return sim.After(sim.Time(in.d), func(e *sim.Env) sim.Cont {
				logSlept(r.rec, name, in.d, float64(e.Now()))
				return next(e)
			})
		case opYield:
			return sim.After(0, func(e *sim.Env) sim.Cont {
				logYield(r.rec, name, float64(e.Now()))
				return next(e)
			})
		case opPut:
			return r.chans[in.a].PutThen(e, in.b, func(e *sim.Env) sim.Cont {
				logPut(r.rec, name, in.a, in.b, float64(e.Now()))
				return next(e)
			})
		case opGet:
			return r.chans[in.a].GetThen(e, func(e *sim.Env, v int, ok bool) sim.Cont {
				logGot(r.rec, name, in.a, v, ok, float64(e.Now()))
				return next(e)
			})
		case opTryGet:
			v, ok := r.chans[in.a].TryGet()
			logTryGet(r.rec, name, in.a, v, ok, float64(e.Now()))
			return next(e)
		case opClose:
			r.chans[in.a].Close(e)
			logClose(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opAcquire:
			return r.ress[in.a].AcquireThen(e, func(e *sim.Env) sim.Cont {
				logAcq(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opRelease:
			r.ress[in.a].Release()
			logRel(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opSigWait:
			return r.sigs[in.a].WaitThen(e, func(e *sim.Env) sim.Cont {
				logSigWait(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opSigFire:
			r.sigs[in.a].Fire()
			logSigFire(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opCondWait:
			return r.conds[in.a].WaitThen(e, func(e *sim.Env) sim.Cont {
				logCondWait(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opNotifyOne:
			r.conds[in.a].NotifyOne()
			logNotify(r.rec, name, "notify1", in.a, float64(e.Now()))
			return next(e)
		case opNotifyAll:
			r.conds[in.a].NotifyAll()
			logNotify(r.rec, name, "notifyN", in.a, float64(e.Now()))
			return next(e)
		case opWGDone:
			r.wgs[in.a].Done()
			logWGDone(r.rec, name, in.a, float64(e.Now()))
			return next(e)
		case opWGWait:
			return r.wgs[in.a].WaitThen(e, func(e *sim.Env) sim.Cont {
				logWGWait(r.rec, name, in.a, float64(e.Now()))
				return next(e)
			})
		case opSpawn:
			child := r.spawn(in.a)
			logSpawn(r.rec, name, child, float64(e.Now()))
			return next(e)
		case opRand:
			v := e.Rand().Int63n(1 << 30)
			logRand(r.rec, name, v, float64(e.Now()))
			return next(e)
		case opPanic:
			panic(fmt.Sprintf("boom from %s", name))
		default:
			return next(e)
		}
	}
}

// recProc runs a script in the form the runtime's long-lived processes
// take: its state is a record with a program counter, and its steps are
// bound once, so every wait re-arms the same step.
type recProc struct {
	r      *runner
	si, i  int
	name   string
	resume sim.Step                                  // resumeStep, bound once
	got    func(e *sim.Env, v int, ok bool) sim.Cont // gotStep, bound once
}

// run executes instructions from the program counter on until one waits.
func (p *recProc) run(e *sim.Env) sim.Cont {
	r, sc := p.r, p.r.p.scripts[p.si]
	for ; p.i < len(sc); p.i++ {
		in := sc[p.i]
		switch {
		case in.op == opGet:
			return r.chans[in.a].GetThen(e, p.got)
		case waits(in.op):
			return r.wait(e, in, p.resume)
		default:
			r.exec(e, in, p.name)
		}
	}
	logEnd(r.rec, p.name, float64(e.Now()))
	return sim.Done()
}

// resumeStep logs the wait of the current instruction and goes on.
func (p *recProc) resumeStep(e *sim.Env) sim.Cont {
	p.r.logWaited(p.r.p.scripts[p.si][p.i], p.name, e)
	p.i++
	return p.run(e)
}

// gotStep logs the receive of the current instruction and goes on.
func (p *recProc) gotStep(e *sim.Env, v int, ok bool) sim.Cont {
	logGot(p.r.rec, p.name, p.r.p.scripts[p.si][p.i].a, v, ok, float64(e.Now()))
	p.i++
	return p.run(e)
}

// waits reports whether op may wait, other than a channel receive.
func waits(op opcode) bool {
	switch op {
	case opSleep, opYield, opPut, opAcquire, opSigWait, opCondWait, opWGWait:
		return true
	}
	return false
}

// wait arms in's wait with resume as the step that runs after it.
func (r *runner) wait(e *sim.Env, in instr, resume sim.Step) sim.Cont {
	switch in.op {
	case opSleep:
		return sim.After(sim.Time(in.d), resume)
	case opYield:
		return sim.After(0, resume)
	case opPut:
		return r.chans[in.a].PutThen(e, in.b, resume)
	case opAcquire:
		return r.ress[in.a].AcquireThen(e, resume)
	case opSigWait:
		return r.sigs[in.a].WaitThen(e, resume)
	case opCondWait:
		return r.conds[in.a].WaitThen(e, resume)
	default: // opWGWait
		return r.wgs[in.a].WaitThen(e, resume)
	}
}

// logWaited logs the completion of in's wait.
func (r *runner) logWaited(in instr, name string, e *sim.Env) {
	now := float64(e.Now())
	switch in.op {
	case opSleep:
		logSlept(r.rec, name, in.d, now)
	case opYield:
		logYield(r.rec, name, now)
	case opPut:
		logPut(r.rec, name, in.a, in.b, now)
	case opAcquire:
		logAcq(r.rec, name, in.a, now)
	case opSigWait:
		logSigWait(r.rec, name, in.a, now)
	case opCondWait:
		logCondWait(r.rec, name, in.a, now)
	case opWGWait:
		logWGWait(r.rec, name, in.a, now)
	}
}

// exec runs an instruction that never waits and logs it.
func (r *runner) exec(e *sim.Env, in instr, name string) {
	now := float64(e.Now())
	switch in.op {
	case opTryGet:
		v, ok := r.chans[in.a].TryGet()
		logTryGet(r.rec, name, in.a, v, ok, now)
	case opClose:
		r.chans[in.a].Close(e)
		logClose(r.rec, name, in.a, now)
	case opRelease:
		r.ress[in.a].Release()
		logRel(r.rec, name, in.a, now)
	case opSigFire:
		r.sigs[in.a].Fire()
		logSigFire(r.rec, name, in.a, now)
	case opNotifyOne:
		r.conds[in.a].NotifyOne()
		logNotify(r.rec, name, "notify1", in.a, now)
	case opNotifyAll:
		r.conds[in.a].NotifyAll()
		logNotify(r.rec, name, "notifyN", in.a, now)
	case opWGDone:
		r.wgs[in.a].Done()
		logWGDone(r.rec, name, in.a, now)
	case opSpawn:
		child := r.spawn(in.a)
		logSpawn(r.rec, name, child, now)
	case opRand:
		v := e.Rand().Int63n(1 << 30)
		logRand(r.rec, name, v, now)
	case opPanic:
		panic(fmt.Sprintf("boom from %s", name))
	}
}

// ---------------------------------------------------------------------------
// Comparison helper

// firstDiff returns the first index at which the traces differ, or -1.
func firstDiff(a, b []string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// diffReport formats a mismatch for a test failure.
func diffReport(p prog, what string, a, b []string, i int) string {
	ctx := func(t []string) string {
		lo := i - 3
		if lo < 0 {
			lo = 0
		}
		s := ""
		for j := lo; j < len(t) && j <= i; j++ {
			s += fmt.Sprintf("    %4d: %s\n", j, t[j])
		}
		if i >= len(t) {
			s += fmt.Sprintf("    %4d: <missing>\n", i)
		}
		return s
	}
	return fmt.Sprintf("%s diverge at line %d\n--- first:\n%s--- second:\n%s--- program:\n%s",
		what, i, ctx(a), ctx(b), p)
}
