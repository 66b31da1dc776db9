package core

import (
	"fmt"
	"slices"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xfer"
)

// Requester back-off bounds for polling senders that currently have no data
// (the paper's Algorithm 3 receives an empty message in that case).
const (
	minBackoff = 100 * sim.Microsecond
	maxBackoff = 2 * sim.Millisecond
)

// request is the demand message a consumer sends upstream: it names the
// device class that triggered it (Section 5.3.2) so DBSA can select the
// best-suited data buffer. Each request lives in the fetch record that
// sends it, and reply is that record's own reply channel.
type request struct {
	kind     hw.Kind
	from     *hw.Node
	fromInst int // consumer instance index (labeled-stream partitioning)
	reply    *sim.Chan[reply]
}

// reply carries a data buffer, an empty NACK (t == nil), or end-of-stream.
type reply struct {
	t   *task.Task
	eof bool
}

// sender is the producer side of a stream at one filter instance: the
// SendQueue plus the ThreadBufferQueuer/ThreadBufferSender pair of
// Algorithms 4 and 5 (queuing happens inline in push; the sender process
// answers requests).
type sender struct {
	inst  *Instance
	name  string // proc name, precomputed at construction
	queue *policy.Queue
	parts []*policy.Queue // per-consumer partitions (labeled streams only)
	// partNames are the partitions' queue names ("send.p0", ...) for the
	// QueueDepth hook, precomputed at construction.
	partNames []string
	reqCh     *sim.Chan[*request]
	gen       *generator // non-nil for lazy source filters
	// gotRequest is onRequest bound once, the continuation runStep parks
	// on the request channel with; freeTx holds idle reply transmissions.
	gotRequest func(*sim.Env, *request, bool) sim.Cont
	freeTx     []*replyTx
}

// generator is the on-demand production state of a lazy source instance.
type generator struct {
	next, count int
	instance    int
	watermark   int
	make        func(instance, k int) *task.Task
	// fresh tracks which generated tasks are still in the send queue, so
	// the watermark counts *fresh* buffers: a backlog of resubmitted work
	// must not stall the reader (a real demand-driven reader keeps
	// reading regardless of how much recalculation work is queued). It
	// holds their IDs in no particular order, at most watermark of them.
	fresh []uint64
}

// taken drops id from the fresh set if it is there: swap-delete in a slice
// no longer than the watermark.
func (g *generator) taken(id uint64) {
	for i, f := range g.fresh {
		if f == id {
			last := len(g.fresh) - 1
			g.fresh[i] = g.fresh[last]
			g.fresh = g.fresh[:last]
			return
		}
	}
}

// push inserts a data buffer into the SendQueue (ThreadBufferQueuer). On a
// labeled stream the buffer goes to its label's partition.
func (s *sender) push(t *task.Task) {
	s.noteEmit(t)
	if s.parts != nil {
		stream := s.inst.f.out
		pi := int(stream.labelFn(t) % uint64(len(s.parts)))
		s.parts[pi].Push(t)
		s.noteDepth(pi)
		return
	}
	s.queue.Push(t)
	s.noteDepth(-1)
}

// queuedLen is the sender's total queued depth across partitions, the
// Queued field of scheduler PeerViews.
func (s *sender) queuedLen() int {
	n := s.queue.Len()
	for _, p := range s.parts {
		n += p.Len()
	}
	return n
}

// refill tops the send queue up to the generator's watermark of fresh
// buffers, so lazily produced buffers interleave with resubmitted ones
// under demand.
func (s *sender) refill(now sim.Time) {
	g := s.gen
	if g == nil {
		return
	}
	for g.next < g.count && len(g.fresh) < g.watermark {
		t := g.make(g.instance, g.next)
		g.next++
		s.inst.rt.prep(t, now)
		g.fresh = append(g.fresh, t.ID)
		s.push(t) // respects labeled-stream partitioning
	}
}

// popFor pops the best buffer for the requesting device class (and, on
// labeled streams, the requesting instance's partition), maintaining the
// generator's fresh-buffer accounting.
func (s *sender) popFor(req *request) *task.Task {
	q, pi := s.queue, -1
	if s.parts != nil {
		pi = req.fromInst % len(s.parts)
		q = s.parts[pi]
	}
	var t *task.Task
	if sch := s.inst.f.out.pol.Sched; sch != nil {
		// Pluggable scheduler: rank the queue by the consumer-specific
		// score instead of the ordering's per-kind selection.
		c := policy.Consumer{Kind: req.kind, Node: req.from.ID, Instance: req.fromInst}
		t = q.PopRanked(func(t *task.Task) float64 { return sch.Score(t, c) })
	} else {
		t = q.PopFor(req.kind)
	}
	if t != nil {
		s.took(t, pi)
	}
	return t
}

// took is the bookkeeping of buffer t leaving send-queue partition part
// (-1 for the main queue): it no longer counts as fresh generator output,
// and the queue's depth changed.
func (s *sender) took(t *task.Task, part int) {
	if s.gen != nil {
		s.gen.taken(t.ID)
	}
	s.noteDepth(part)
}

// answer serves one data request: refill the queue (lazy sources), select
// the buffer with DBSA when the queue is sorted (FIFO otherwise), and build
// the reply — a data buffer, an empty NACK, or EOF once the job completed.
// It is the serial, non-blocking half of ThreadBufferSender (it mutates the
// SendQueue).
func (s *sender) answer(now sim.Time, req *request) reply {
	s.refill(now)
	if t := s.popFor(req); t != nil {
		s.inst.f.out.stats.sent++
		s.noteSend(req.fromInst, t.ID, t.Size, false)
		return reply{t: t}
	}
	if s.inst.rt.track.done.Fired() {
		return reply{eof: true}
	}
	return reply{}
}

// wireSize is the number of bytes a reply occupies on the network: the data
// buffer's size, or one control message for NACK/EOF.
func (rep reply) wireSize() int64 {
	if rep.t != nil {
		return rep.t.Size
	}
	return ctrlMsgBytes
}

// runStep is ThreadBufferSender: serve data requests, selecting the buffer
// with DBSA when the queue is sorted, FIFO otherwise. Buffer selection is
// serial (it mutates the SendQueue); transmission is dispatched to its own
// step chain (NIC serialization, then the reply hand-off) so a bulk
// transfer to one consumer does not head-of-line block every other
// consumer's request — the NIC model still serializes the actual bytes,
// segment-interleaved. Requests already queued are drained inline without
// yielding; only an empty request channel arms a continuation.
func (s *sender) runStep(e *sim.Env) sim.Cont {
	for {
		req, ok := s.reqCh.TryGet()
		if !ok {
			if s.reqCh.Closed() {
				return sim.Done()
			}
			return s.reqCh.GetThen(e, s.gotRequest)
		}
		s.serve(e, req)
	}
}

// onRequest resumes runStep once a request arrives on an empty channel.
func (s *sender) onRequest(e *sim.Env, req *request, ok bool) sim.Cont {
	if !ok {
		return sim.Done()
	}
	s.serve(e, req)
	return s.runStep(e)
}

// serve answers one request and spawns the step chain transmitting the
// reply: network send, then the hand-off into the requester's reply channel.
func (s *sender) serve(e *sim.Env, req *request) {
	rep := s.answer(e.Now(), req)
	var tx *replyTx
	if n := len(s.freeTx); n > 0 {
		tx = s.freeTx[n-1]
		s.freeTx = s.freeTx[:n-1]
	} else {
		tx = &replyTx{s: s}
		tx.runStep, tx.deliverStep = tx.run, tx.deliver
	}
	tx.to, tx.ch, tx.rep = req.from, req.reply, rep
	e.SpawnStep("send", tx.runStep)
}

// replyTx is one reply on its way back to a requester, a pooled record of
// its sender: the network send, then the hand-off into the reply channel.
type replyTx struct {
	s   *sender
	to  *hw.Node
	ch  *sim.Chan[reply]
	rep reply
	// Bound once when the record is made: run and deliver as Steps.
	runStep, deliverStep sim.Step
}

func (tx *replyTx) run(e *sim.Env) sim.Cont {
	s := tx.s
	return s.inst.rt.Cluster.Net.SendThen(e, s.inst.node, tx.to, tx.rep.wireSize(), tx.deliverStep)
}

// deliver hands the reply over; the record goes back to the pool first.
func (tx *replyTx) deliver(e *sim.Env) sim.Cont {
	ch, rep := tx.ch, tx.rep
	tx.to, tx.ch, tx.rep = nil, nil, reply{}
	tx.s.freeTx = append(tx.s.freeTx, tx)
	return ch.PutThen(e, rep, sim.DoneStep)
}

// pusher is the state of a push-mode sender's loop (runPush): the
// consumer rotation, the backoff, and the buffer on the wire.
type pusher struct {
	s         *sender
	consumers []*Instance
	qi        int // this stream's index among the consumer's inputs
	rr        int
	dp        policy.DestPicker // nil unless the scheduler steers the rotation
	backoff   sim.Time
	t         *task.Task
	dst       *Instance
	// Bound once in newPusher: the loop's resume steps and the PeerView
	// adapter PickDest observes consumers through.
	backedOffStep, sentStep sim.Step
	view                    func(int) policy.PeerView
}

func (s *sender) newPusher() *pusher {
	stream := s.inst.f.out
	p := &pusher{s: s, consumers: stream.to.instances, backoff: minBackoff}
	for i, in := range stream.to.in {
		if in == stream {
			p.qi = i
		}
	}
	p.rr = s.inst.idx % len(p.consumers)
	if sch := stream.pol.Sched; sch != nil {
		p.dp, _ = sch.(policy.DestPicker)
	}
	p.backedOffStep, p.sentStep = p.backedOff, p.sent
	p.view = p.peerView
	return p
}

func (p *pusher) peerView(i int) policy.PeerView {
	ci := p.consumers[i]
	return policy.PeerView{Node: ci.node.ID, Dead: ci.dead, Queued: ci.inputs[p.qi].queue.Len()}
}

// runPush implements the push-based stream the paper excludes: drain the
// send queue FIFO and ship every buffer to the next consumer instance in
// rotation, regardless of downstream demand or suitability. An empty queue
// backs off on a timer, doubled after it fires; the network send resumes
// in sent.
func (p *pusher) runPush(e *sim.Env) sim.Cont {
	s := p.s
	rt := s.inst.rt
	if rt.track.done.Fired() || s.inst.dead {
		return sim.Done()
	}
	s.refill(e.Now())
	t := s.queue.PopFor(hw.CPU) // FIFO pop: kind is irrelevant
	if t == nil {
		return sim.After(p.backoff, p.backedOffStep)
	}
	s.took(t, -1)
	p.backoff = minBackoff
	consumers := p.consumers
	if p.dp != nil {
		if i := p.dp.PickDest(t, len(consumers), p.view, p.rr); i >= 0 {
			p.rr = i
		}
	}
	// Skip crashed consumers in the rotation; fault.Apply guarantees at
	// least one transparent copy survives.
	dst := consumers[p.rr%len(consumers)]
	for scan := 0; dst.dead; scan++ {
		if scan == len(consumers) {
			panic("core: push stream has no live consumer")
		}
		p.rr++
		dst = consumers[p.rr%len(consumers)]
	}
	p.rr++
	// The send is noted at transfer start — symmetric with the demand
	// path, where noteSend fires when the buffer is popped — so the
	// Send→Deliver window brackets the network transfer. A transfer whose
	// destination dies mid-flight counts as a (re-)send.
	s.inst.f.out.stats.sent++
	s.noteSend(dst.idx, t.ID, t.Size, true)
	p.t, p.dst = t, dst
	return rt.Cluster.Net.SendThen(e, s.inst.node, dst.node, t.Size, p.sentStep)
}

// backedOff resumes the loop after an empty-queue backoff, doubling the
// next backoff up to its ceiling.
func (p *pusher) backedOff(e *sim.Env) sim.Cont {
	if p.backoff < maxBackoff {
		p.backoff *= 2
	}
	return p.runPush(e)
}

// sent delivers the buffer that has crossed the network, then goes round
// the loop again.
func (p *pusher) sent(e *sim.Env) sim.Cont {
	s, t, dst := p.s, p.t, p.dst
	p.t, p.dst = nil, nil
	stream := s.inst.f.out
	if dst.dead {
		// Crashed while the buffer was on the wire: reclaim it into our
		// own send queue (the sender's retransmit buffer) for re-send.
		stream.stats.reenqueued++
		s.push(t)
		return p.runPush(e)
	}
	dst.inputs[p.qi].queue.Push(t)
	stream.stats.delivered++
	dst.noteDeliver(p.qi, t, true)
	dst.noteInputDepth(p.qi)
	dst.taskAvail.NotifyAll()
	return p.runPush(e)
}

// inputStream is the receiver side of one stream at one instance: the
// shared StreamOutQueue, viewed FIFO or sorted-by-speedup per device class.
type inputStream struct {
	s     *Stream
	queue *policy.Queue
}

// reqState is the per-worker, per-input-stream request bookkeeping of
// Algorithms 2 and 3: how many buffers this worker currently has queued,
// what its target is (static, or DQAA-controlled), and the last observed
// request latency.
type reqState struct {
	requestSize int
	static      int
	dqaa        *policy.DQAA
	lastLatency sim.Time
	haveLatency bool
	rrSender    int
}

func (st *reqState) target() int {
	if st.dqaa != nil {
		return st.dqaa.Target()
	}
	return st.static
}

// targetFor is the worker-aware request target: a GPU worker running the
// asynchronous transfer pipeline needs at least concurrentEvents+1 buffers
// in flight for copies to overlap kernels at all — DQAA's latency/process
// ratio systematically underestimates the demand of a pipelined processor,
// so the controller's concurrency sets the floor and DQAA adapts above it.
func (w *worker) targetFor(st *reqState) int {
	t := st.target()
	if w.inst.rt.tun.NoPipelineDemandFloor {
		return t
	}
	if st.dqaa != nil && w.ctrl != nil && w.exec != nil && w.exec.Async {
		if c := w.ctrl.Concurrent() + 1; c > t {
			t = c
		}
	}
	return t
}

// worker is one event-handler thread bound to one device.
type worker struct {
	inst      *Instance
	kind      hw.Kind
	dev       *hw.Device
	exec      *xfer.Executor   // GPU workers only
	ctrl      *xfer.Controller // GPU workers only (async mode)
	tid       int
	reqStates []*reqState // one per input stream
	// Proc names, precomputed at construction: name() is on the demand-hook
	// hot path and the fetch/requester names are used once per spawned
	// process, so formatting them per call would allocate per message.
	procName  string
	fetchName string
	reqNames  []string // one per input stream
	// ctx is the handler's context, built once.
	ctx Ctx
	// The main loop's steps (run, ran, batchRan), bound once, and the
	// event in service on the one-event path with its pop bookkeeping.
	runStep, ranStep, batchRanStep sim.Step
	t                              *task.Task
	st                             *reqState
	qi                             int
	start                          sim.Time
	// GPU workers only: the arrays fillBatch fills, reused batch after
	// batch (batchRan is done with a batch before run pops the next), and
	// the one-element batch of the synchronous path.
	batch  []*task.Task
	states []*reqState
	qis    []int
	single [1]*task.Task
}

func (w *worker) name() string { return w.procName }

// Instance is one transparent copy of a filter on a node.
type Instance struct {
	rt        *Runtime
	f         *Filter
	idx       int
	node      *hw.Node
	inputs    []*inputStream
	out       *sender
	workers   []*worker
	rrQueue   int
	resubRR   int
	reclaimRR int
	dead      bool      // fail-stop crashed (fault injection)
	diedAt    sim.Time  // crash time, for reports
	taskAvail *sim.Cond // workers wait here for queued events
	demand    *sim.Cond // requesters wait here for demand headroom
	// fetcher maps a queued task to the request bookkeeping of the worker
	// whose ThreadRequester fetched it. Buffers in the shared
	// StreamOutQueue are fungible — any worker may pop any buffer — but
	// requestsize(tid) counts buffers *assigned to* tid (Algorithm 2), so
	// a pop must decrement the fetcher's counter, whoever consumes it.
	fetcher map[uint64]*reqState
	// freeResub holds idle resubmission records for reuse.
	freeResub []*resubmission
}

// Node returns the node hosting this instance.
func (inst *Instance) Node() *hw.Node { return inst.node }

// Dead reports whether the instance has been crashed by fault injection.
func (inst *Instance) Dead() bool { return inst.dead }

// Workers returns the instance's workers' device kinds, for tests.
func (inst *Instance) WorkerKinds() []hw.Kind {
	out := make([]hw.Kind, len(inst.workers))
	for i, w := range inst.workers {
		out[i] = w.kind
	}
	return out
}

func newInstance(rt *Runtime, f *Filter, idx int, node *hw.Node) *Instance {
	inst := &Instance{rt: rt, f: f, idx: idx, node: node, fetcher: make(map[uint64]*reqState)}
	inst.taskAvail = sim.NewCond(rt.K)
	inst.demand = sim.NewCond(rt.K)
	if f.out != nil {
		inst.out = &sender{
			inst:  inst,
			name:  fmt.Sprintf("%s/%d/sender", f.Name(), idx),
			queue: policy.NewQueue(f.out.pol.Sender),
			reqCh: sim.NewChan[*request](rt.K, 1024),
		}
		inst.out.gotRequest = inst.out.onRequest
		if f.out.labelFn != nil {
			inst.out.parts = make([]*policy.Queue, len(f.out.to.spec.Placement))
			inst.out.partNames = make([]string, len(inst.out.parts))
			for i := range inst.out.parts {
				inst.out.parts[i] = policy.NewQueue(f.out.pol.Sender)
				inst.out.partNames[i] = fmt.Sprintf("send.p%d", i)
			}
		}
	}
	for _, s := range f.in {
		inst.inputs = append(inst.inputs, &inputStream{
			s:     s,
			queue: policy.NewQueue(s.pol.Receiver),
		})
	}
	if f.spec.Handler != nil {
		inst.buildWorkers()
	}
	return inst
}

// buildWorkers creates one worker per device following the paper's testbed
// convention: a GPU worker consumes one CPU core as its manager; remaining
// cores become CPU workers (bounded by CPUWorkers).
func (inst *Instance) buildWorkers() {
	spec := inst.f.spec
	tid := 0
	cpuOffset := 0
	if spec.UseGPU && inst.node.HasGPU() {
		ng := spec.GPUWorkers
		if ng < 1 {
			ng = 1
		}
		if ng > len(inst.node.CPUs) {
			ng = len(inst.node.CPUs) // each GPU worker needs a manager core
		}
		for g := 0; g < ng; g++ {
			w := &worker{
				inst: inst, kind: hw.GPU, dev: inst.node.GPU, tid: tid,
				exec: xfer.NewExecutor(inst.node.GPU, inst.node.Link, spec.AsyncCopy),
				ctrl: xfer.NewController(spec.MaxConcurrentCopies),
			}
			if hook := inst.rt.Hooks.Span; hook != nil {
				w := w
				w.exec.OnSpan = func(sp xfer.Span) {
					hook(SpanRecord{
						Filter:   w.inst.f.Name(),
						Instance: w.inst.idx,
						Worker:   w.name(),
						NodeID:   w.inst.node.ID,
						Kind:     sp.Kind,
						Start:    sp.Start,
						End:      sp.End,
						Bytes:    sp.Bytes,
						TaskID:   sp.Task,
					})
				}
			}
			inst.workers = append(inst.workers, w)
			tid++
		}
		cpuOffset = ng // one manager core per GPU worker
	}
	avail := len(inst.node.CPUs) - cpuOffset
	n := spec.CPUWorkers
	if n < 0 || n > avail {
		n = avail
	}
	for i := 0; i < n; i++ {
		w := &worker{
			inst: inst, kind: hw.CPU, dev: inst.node.CPUs[cpuOffset+i], tid: tid,
		}
		inst.workers = append(inst.workers, w)
		tid++
	}
	if len(inst.workers) == 0 {
		panic(fmt.Sprintf("core: filter %q instance on %s has no usable devices",
			inst.f.Name(), inst.node.Name()))
	}
	for _, w := range inst.workers {
		w.ctx = Ctx{Runtime: inst.rt, Filter: inst.f.Name(), Node: inst.node, Kind: w.kind, Instance: inst.idx}
		w.runStep, w.ranStep, w.batchRanStep = w.run, w.ran, w.batchRan
		w.procName = fmt.Sprintf("%s/%d/%s%d", inst.f.Name(), inst.idx, w.kind, w.tid)
		w.fetchName = w.procName + "/fetch"
		for qi, is := range inst.inputs {
			st := &reqState{static: is.s.pol.RequestSize}
			if is.s.pol.Dynamic {
				st.dqaa = policy.NewDQAATuned(inst.rt.tun.DQAAFloor, 0)
			}
			w.reqStates = append(w.reqStates, st)
			w.reqNames = append(w.reqNames, fmt.Sprintf("%s/req%d", w.procName, qi))
		}
	}
}

// start spawns the instance's processes: the sender's serve loop (or
// push loop), and per worker its main loop and one requester per input
// stream.
func (inst *Instance) start() {
	if inst.out != nil {
		s := inst.out
		if inst.f.out.pol.Push {
			inst.rt.K.SpawnStep(s.name, s.newPusher().runPush)
		} else {
			inst.rt.K.SpawnStep(s.name, s.runStep)
		}
	}
	for _, w := range inst.workers {
		w := w
		inst.rt.K.SpawnStep(w.name(), w.runStep)
		for qi := range inst.inputs {
			if inst.inputs[qi].s.pol.Push {
				continue // push streams have no demand side
			}
			qi := qi
			inst.rt.K.SpawnStep(w.reqNames[qi], func(e *sim.Env) sim.Cont {
				return w.requesterStep(e, qi)
			})
		}
	}
}

// wakeAll unblocks workers and requesters so they can observe completion.
func (inst *Instance) wakeAll() {
	inst.taskAvail.NotifyAll()
	inst.demand.NotifyAll()
}

// tryPop removes the best event for the worker's device from the input
// queues, selecting the queue round-robin as the Event Scheduler does. The
// returned reqState is the *popping* worker's bookkeeping for the stream
// the event came from (used for its DQAA update); the fetching worker's
// requestsize is decremented internally. The last result is the input-queue
// index the event came from, so the crash-recovery path can credit the
// right stream when a dead worker's in-service event is reclaimed.
func (w *worker) tryPop() (*task.Task, *reqState, int) {
	inst := w.inst
	n := len(inst.inputs)
	for i := 0; i < n; i++ {
		qi := (inst.rrQueue + i) % n
		if t := w.popInput(qi); t != nil {
			return w.popped(qi, t)
		}
	}
	return nil, nil, -1
}

// popped is the bookkeeping shared by tryPop and tryPopAtLeast once t left
// input queue qi: the round robin moves past qi, the depth is published,
// and the worker whose request fetched t gets its credit back.
func (w *worker) popped(qi int, t *task.Task) (*task.Task, *reqState, int) {
	inst := w.inst
	inst.rrQueue = (qi + 1) % len(inst.inputs)
	inst.noteInputDepth(qi)
	if inst.creditFetcher(t) {
		inst.demand.NotifyAll()
	}
	return t, w.reqStates[qi], qi
}

// creditFetcher settles t's fetcher accounting as t leaves an input queue:
// the worker whose request fetched t has one buffer fewer outstanding,
// whoever consumes it. It reports whether t had a fetcher.
func (inst *Instance) creditFetcher(t *task.Task) bool {
	fs, ok := inst.fetcher[t.ID]
	if ok {
		delete(inst.fetcher, t.ID)
		fs.requestSize--
	}
	return ok
}

// consumer is the worker's identity for pluggable-scheduler decisions.
func (w *worker) consumer() policy.Consumer {
	return policy.Consumer{Kind: w.kind, Node: w.inst.node.ID, Instance: w.inst.idx}
}

// popInput pops the best event for the worker from input queue qi — via
// the stream's pluggable scheduler when one is installed, via the
// ordering's per-kind selection otherwise. Scheduler pops are reported to
// PopObserver implementations (the moment a device commits to a buffer).
func (w *worker) popInput(qi int) *task.Task {
	in := w.inst.inputs[qi]
	sch := in.s.pol.Sched
	if sch == nil {
		return in.queue.PopFor(w.kind)
	}
	c := w.consumer()
	t := in.queue.PopRanked(func(t *task.Task) float64 { return sch.Score(t, c) })
	if t != nil {
		if o, ok := sch.(policy.PopObserver); ok {
			o.ObservePop(c, t)
		}
	}
	return t
}

// noteService reports a completed buffer's service time to the stream's
// scheduler, if it learns from observed work (ServiceObserver).
func (w *worker) noteService(qi int, t *task.Task, dur sim.Time) {
	if qi < 0 {
		return
	}
	if sch := w.inst.inputs[qi].s.pol.Sched; sch != nil {
		if o, ok := sch.(policy.ServiceObserver); ok {
			o.ObserveService(w.consumer(), t, dur)
		}
	}
}

// batchAffinityRatio bounds how much less suited a queued event may be than
// the batch's first event and still be pulled into the same GPU pipeline
// batch. An idle GPU will still take a strongly CPU-suited event — that is
// the demand-driven load balancing — but one at a time, via the first pop
// of a batch, not as batch filler: greedily draining another device's
// prefetched events would starve it (and with DQAA-sized queues of depth
// ~1, permanently poison it with the other class's work).
const batchAffinityRatio = 0.5

// tryPopAtLeast pops the best event for the worker whose relative-advantage
// key is at least minKey, or nil.
func (w *worker) tryPopAtLeast(minKey float64) (*task.Task, *reqState, int) {
	inst := w.inst
	n := len(inst.inputs)
	for i := 0; i < n; i++ {
		qi := (inst.rrQueue + i) % n
		q := inst.inputs[qi].queue
		if sch := inst.inputs[qi].s.pol.Sched; sch != nil {
			c := w.consumer()
			sc, ok := q.PeekRanked(func(t *task.Task) float64 { return sch.Score(t, c) })
			if !ok || sc < minKey {
				continue
			}
		} else if key, ok := q.PeekKeyFor(w.kind); !ok || key < minKey {
			continue
		}
		if t := w.popInput(qi); t != nil {
			return w.popped(qi, t)
		}
	}
	return nil, nil, -1
}

// fillBatch starts a batch of up to n events with t, just popped from
// input queue qi with bookkeeping st, and fills it from the queues without
// waiting. Extension events must have comparable affinity to the first
// one. The batch goes into the worker's own arrays, overwritten by the next
// fillBatch.
func (w *worker) fillBatch(t *task.Task, st *reqState, qi, n int) {
	batch := append(w.batch[:0], t)
	states := append(w.states[:0], st)
	qis := append(w.qis[:0], qi)
	ratio := w.inst.rt.tun.BatchAffinityRatio
	minKey := t.Key[w.kind] * ratio
	if sch := w.inst.inputs[qi].s.pol.Sched; sch != nil {
		// Scheduler streams gate batch filler on the scheduler's own
		// score scale, so partition bonuses and the like carry over.
		minKey = sch.Score(t, w.consumer()) * ratio
	}
	if ratio < 0 {
		minKey = -1 // any key qualifies: greedy draining (ablation)
	}
	for len(batch) < n {
		t, st, qi := w.tryPopAtLeast(minKey)
		if t == nil {
			break
		}
		batch = append(batch, t)
		states = append(states, st)
		qis = append(qis, qi)
	}
	w.batch, w.states, w.qis = batch, states, qis
}

// run is the worker's main loop, ThreadWorker in Algorithm 2, as a step
// chain. Each step beside the paper's loop:
//
//	loop                                    run
//	  event ← pop()                           tryPop; taskAvail.WaitThen(run) while empty
//	  if job done or instance crashed: exit   Done
//	  process event on the device             dev.RunThen / exec.RunBatchThen → ran
//	  timetoprocess ← elapsed time            ran
//	  update targetlength with DQAA           ran: afterProcess
//	  run the handler, forward its output     ran: finish, then run inline
//	end loop
//
// GPU workers in asynchronous mode take a batch instead — the popped event
// plus filler up to Algorithm 1's controller concurrency — through the
// transfer pipeline, and batchRan settles it. ran and batchRan call run
// directly: the worker pops its next event without yielding, and run
// always suspends before it can reach ran again.
func (w *worker) run(e *sim.Env) sim.Cont {
	inst := w.inst
	if inst.dead {
		return sim.Done()
	}
	t, st, qi := w.tryPop()
	if t == nil {
		if inst.rt.track.done.Fired() {
			return sim.Done()
		}
		return inst.taskAvail.WaitThen(e, w.runStep)
	}
	w.start = e.Now()
	if w.kind == hw.GPU && w.exec.Async {
		w.fillBatch(t, st, qi, w.ctrl.Concurrent())
		return w.exec.RunBatchThen(e, w.batch, w.batchRanStep)
	}
	w.t, w.st, w.qi = t, st, qi
	if w.kind == hw.GPU {
		w.single[0] = t
		return w.exec.RunBatchThen(e, w.single[:], w.ranStep)
	}
	return w.dev.RunThen(e, t.Cost(t, w.kind), w.ranStep)
}

// ran settles one processed event and pops the next.
func (w *worker) ran(e *sim.Env) sim.Cont {
	t, st, qi, start := w.t, w.st, w.qi, w.start
	w.t, w.st = nil, nil
	if w.inst.dead {
		// Fail-stop mid-service: the event's work is lost and it is
		// reclaimed upstream for reprocessing.
		w.abortReclaim(qi, t)
		return sim.Done()
	}
	dur := e.Now() - start
	w.afterProcess(e, st, dur)
	w.noteService(qi, t, dur) // before finish, which may release t
	w.finish(e, t, start)
	return w.run(e)
}

// batchRan settles a processed batch, feeds its throughput to Algorithm
// 1's controller and pops the next event.
func (w *worker) batchRan(e *sim.Env) sim.Cont {
	batch, states, qis, start := w.batch, w.states, w.qis, w.start
	if w.inst.dead {
		for i, t := range batch {
			w.abortReclaim(qis[i], t)
		}
		return sim.Done()
	}
	dur := e.Now() - start
	perEvent := dur / sim.Time(len(batch))
	for i, t := range batch {
		w.afterProcess(e, states[i], perEvent)
		w.noteService(qis[i], t, perEvent) // before finish, which may release t
		w.finish(e, t, start)
	}
	if dur > 0 {
		before := w.ctrl.Concurrent()
		w.ctrl.Observe(float64(len(batch)) / float64(dur))
		if w.ctrl.Concurrent() > before {
			w.inst.demand.NotifyAll()
		}
	}
	return w.run(e)
}

// afterProcess feeds DQAA with the measured processing time (Algorithm 2's
// targetlength update) and wakes requesters if the target grew.
func (w *worker) afterProcess(e *sim.Env, st *reqState, timeToProcess sim.Time) {
	if st == nil || st.dqaa == nil || !st.haveLatency {
		return
	}
	old := st.dqaa.Target()
	nt := st.dqaa.Observe(st.lastLatency, timeToProcess)
	if nt != old {
		if w.inst.rt.wantTarget() {
			w.inst.rt.emitTarget(TargetRecord{
				Filter:   w.inst.f.Name(),
				Instance: w.inst.idx,
				Worker:   w.name(),
				At:       e.Now(),
				Target:   nt,
			})
		}
		if nt > old {
			w.inst.demand.NotifyAll()
		}
	}
}

// finish runs the application handler and applies its action. It is the
// input buffer's last touch: the filter's Release callback, if any, gets
// t at its end.
func (w *worker) finish(e *sim.Env, t *task.Task, start sim.Time) {
	rt := w.inst.rt
	act := w.inst.f.spec.Handler(&w.ctx, t)
	now := e.Now()
	for _, o := range act.Forward {
		if w.inst.out == nil {
			panic(fmt.Sprintf("core: filter %q forwards but has no output stream", w.inst.f.Name()))
		}
		rt.prep(o, now)
		o.Parent = t.ID
		w.inst.out.push(o)
	}
	for _, o := range act.Resubmit {
		rt.prep(o, now)
		o.Parent = t.ID
		w.inst.resubmit(e, o)
	}
	// Account new lineages before retiring the input's, so the tracker
	// can never dip to zero while work is still in flight.
	if created := len(act.Forward) + len(act.Resubmit); created > 0 {
		rt.track.adjust(now, int64(created))
	}
	rt.track.adjust(now, -1)
	if rt.wantProcess() {
		rt.emitProcess(ProcRecord{
			TaskID:   t.ID,
			Parent:   t.Parent,
			Filter:   w.inst.f.Name(),
			Instance: w.inst.idx,
			NodeID:   w.inst.node.ID,
			Kind:     w.kind,
			Start:    start,
			End:      now,
			Params:   t.Params,
			Payload:  t.Payload,
		})
	}
	if rel := w.inst.f.spec.Release; rel != nil &&
		!slices.Contains(act.Forward, t) && !slices.Contains(act.Resubmit, t) {
		rel(t)
	}
}

// resubmit routes a buffer back to the *root* source filter of this
// filter's upstream chain (an instance chosen round-robin), paying one
// control message of network time. Walking to the root makes resubmitted
// work re-traverse every intermediate processing stage — NBIA's
// recalculated tiles go back through color conversion even when the
// pipeline is not fused.
func (inst *Instance) resubmit(e *sim.Env, o *task.Task) {
	if len(inst.inputs) == 0 {
		panic(fmt.Sprintf("core: filter %q resubmits but has no input stream", inst.f.Name()))
	}
	src := inst.inputs[0].s.from
	for len(src.in) > 0 {
		src = src.in[0].from
	}
	tgt := src.instances[inst.resubRR%len(src.instances)]
	inst.resubRR++
	var r *resubmission
	if n := len(inst.freeResub); n > 0 {
		r = inst.freeResub[n-1]
		inst.freeResub = inst.freeResub[:n-1]
	} else {
		r = &resubmission{inst: inst}
		r.runStep, r.arriveStep = r.run, r.arrive
	}
	r.tgt, r.t = tgt, o
	e.SpawnStep("resubmit", r.runStep)
}

// resubmission is one resubmitted buffer on its way to a root source
// instance, a pooled record of the resubmitting instance.
type resubmission struct {
	inst *Instance
	tgt  *Instance
	t    *task.Task
	// Bound once when the record is made: run and arrive as Steps.
	runStep, arriveStep sim.Step
}

func (r *resubmission) run(e *sim.Env) sim.Cont {
	inst := r.inst
	return inst.rt.Cluster.Net.SendThen(e, inst.node, r.tgt.node, ctrlMsgBytes, r.arriveStep)
}

// arrive queues the buffer at the target; the record goes back to the pool.
func (r *resubmission) arrive(*sim.Env) sim.Cont {
	tgt, t := r.tgt, r.t
	r.tgt, r.t = nil, nil
	r.inst.freeResub = append(r.inst.freeResub, r)
	tgt.out.push(t)
	return sim.Done()
}

// reqLoop is the state of one ThreadRequester (Algorithm 3): one worker's
// demand loop for one input stream, keeping requestSize — buffers *being
// transferred plus received and queued*, as the paper defines it — topped
// up to the target by demanding buffers from upstream instances,
// round-robin. Requests are pipelined: several may be outstanding at once,
// up to the target, which is what lets a consumer of large buffers overlap
// their network transfers. An upstream instance with nothing to send
// answers with an empty message; after a full empty cycle the requester
// backs off briefly before issuing more. The process running it is
// requesterStep, a step chain that arms a continuation at each point where
// the paper's loop blocks.
type reqLoop struct {
	w           *worker
	inst        *Instance
	rt          *Runtime
	qi          int
	st          *reqState
	stream      *Stream
	senders     []*sender
	backoff     sim.Time
	emptyStreak int
	eof         bool
	// loopStep and backoffStep are loop and backedOff bound once, the
	// steps every wait and timer of the issue loop resumes with.
	loopStep, backoffStep sim.Step
	// free holds idle fetch records for reuse.
	free []*fetch
}

func (w *worker) newReqLoop(qi int) *reqLoop {
	inst := w.inst
	st := w.reqStates[qi]
	stream := inst.inputs[qi].s
	senders := make([]*sender, 0, len(stream.from.instances))
	for _, si := range stream.from.instances {
		senders = append(senders, si.out)
	}
	if len(senders) > 0 {
		// Spread initial round-robin positions across consumers.
		st.rrSender = inst.idx % len(senders)
	}
	l := &reqLoop{
		w: w, inst: inst, rt: inst.rt, qi: qi,
		st: st, stream: stream, senders: senders, backoff: minBackoff,
	}
	l.loopStep, l.backoffStep = l.loop, l.backedOff
	return l
}

// pick selects the next upstream sender — round-robin by default, or by
// the stream scheduler's PickSender when one is installed. Crashed
// producers are skipped like producers with no data: nil return, empty
// streak bumped.
func (l *reqLoop) pick() *sender {
	idx := l.st.rrSender % len(l.senders)
	if sch := l.stream.pol.Sched; sch != nil {
		if i := sch.PickSender(l.w.consumer(), len(l.senders), l.senderView, l.st.rrSender); i >= 0 {
			idx = i % len(l.senders)
		}
	}
	snd := l.senders[idx]
	l.st.rrSender++
	if snd.inst.dead {
		l.emptyStreak++
		return nil
	}
	return snd
}

// senderView is the PeerView adapter PickSender observes senders through.
func (l *reqLoop) senderView(i int) policy.PeerView {
	s := l.senders[i]
	return policy.PeerView{Node: s.inst.node.ID, Dead: s.inst.dead, Queued: s.queuedLen()}
}

// settle applies one fetch outcome to the requester's bookkeeping — the
// receive half of Algorithm 3.
func (l *reqLoop) settle(fe *sim.Env, t0 sim.Time, rep reply, ok bool) {
	w, st, inst, qi := l.w, l.st, l.inst, l.qi
	switch {
	case !ok || rep.eof:
		l.eof = true
		st.requestSize--
		w.noteDemand(fe.Now(), qi, DemandEOF, st.requestSize)
	case rep.t != nil && inst.dead:
		// We crashed while the buffer was in flight: hand it back to
		// a surviving upstream sender for redelivery elsewhere.
		l.stream.stats.reenqueued++
		inst.liveUpstream(qi).out.push(rep.t)
		st.requestSize--
	case rep.t != nil:
		st.lastLatency = fe.Now() - t0
		st.haveLatency = true
		inst.fetcher[rep.t.ID] = st
		inst.inputs[qi].queue.Push(rep.t)
		l.stream.stats.delivered++
		inst.noteDeliver(qi, rep.t, false)
		w.noteDemand(fe.Now(), qi, DemandData, st.requestSize)
		inst.noteInputDepth(qi)
		inst.taskAvail.NotifyAll()
		l.backoff = minBackoff
		l.emptyStreak = 0
	default: // empty reply: nothing in transit after all
		st.requestSize--
		l.emptyStreak++
		w.noteDemand(fe.Now(), qi, DemandEmpty, st.requestSize)
	}
	inst.demand.NotifyAll() // let the issuing loop reassess
}

// fetch is one fetch protocol round: demand message on the wire, request
// hand-off to the sender, reply wait, settle, then next. Records are pooled
// per requester. Each embeds the request it sends and owns one
// capacity-1 reply channel, reused by every round the record runs, and its
// steps are bound once when it is made, so a round allocates nothing.
type fetch struct {
	l    *reqLoop
	req  request
	snd  *sender
	t0   sim.Time
	next sim.Step
	// Bound once in newFetch: run, sent and queued as Steps, got as the
	// reply channel's continuation.
	runStep, sentStep, queuedStep sim.Step
	gotStep                       func(*sim.Env, reply, bool) sim.Cont
}

// newFetch takes a fetch record from the pool (or makes one) for a round
// against snd that continues with next.
func (l *reqLoop) newFetch(snd *sender, next sim.Step) *fetch {
	var f *fetch
	if n := len(l.free); n > 0 {
		f = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		f = &fetch{l: l}
		f.req = request{kind: l.w.kind, from: l.inst.node, fromInst: l.inst.idx, reply: sim.NewChan[reply](l.rt.K, 1)}
		f.runStep, f.sentStep, f.queuedStep, f.gotStep = f.run, f.sent, f.queued, f.got
	}
	f.snd, f.next = snd, next
	return f
}

// run puts the demand message on the wire.
func (f *fetch) run(e *sim.Env) sim.Cont {
	f.t0 = e.Now()
	l := f.l
	return l.rt.Cluster.Net.SendThen(e, l.inst.node, f.snd.inst.node, ctrlMsgBytes, f.sentStep)
}

// sent hands the request to the sender.
func (f *fetch) sent(e *sim.Env) sim.Cont { return f.snd.reqCh.PutThen(e, &f.req, f.queuedStep) }

// queued waits for the reply.
func (f *fetch) queued(e *sim.Env) sim.Cont { return f.req.reply.GetThen(e, f.gotStep) }

// got returns the record to the pool, settles the reply and runs next. The
// sender put exactly one reply and got took it, so the reply channel is
// empty for the record's next round.
func (f *fetch) got(e *sim.Env, rep reply, ok bool) sim.Cont {
	l, next, t0 := f.l, f.next, f.t0
	f.snd, f.next = nil, nil
	l.free = append(l.free, f)
	l.settle(e, t0, rep, ok)
	return next(e)
}

// requesterStep is ThreadRequester: Algorithm 3's issue loop with every
// blocking point armed as a continuation — demand headroom (condition
// wait), empty-cycle backoff (timer), and the fetch protocol (a chain over
// demand send, request hand-off and reply wait). Non-blocking transitions —
// dead producers, loop re-checks — stay inside the inner for, like the
// paper loop's continue. The backoff is doubled *after* the timer fires,
// because an in-flight fetch that lands data mid-backoff resets it to the
// minimum.
func (w *worker) requesterStep(e *sim.Env, qi int) sim.Cont {
	l := w.newReqLoop(qi)
	if len(l.senders) == 0 {
		return sim.Done()
	}
	return l.loop(e)
}

// loop is the body of requesterStep's issue loop.
func (l *reqLoop) loop(e *sim.Env) sim.Cont {
	w, st, inst, rt := l.w, l.st, l.inst, l.rt
	for !rt.track.done.Fired() && !l.eof && !inst.dead {
		if st.requestSize >= w.targetFor(st) {
			return inst.demand.WaitThen(e, l.loopStep)
		}
		if l.emptyStreak >= len(l.senders) {
			l.emptyStreak = 0
			return sim.After(l.backoff, l.backoffStep)
		}
		snd := l.pick()
		if snd == nil {
			continue
		}
		st.requestSize++ // in transit counts toward the target
		w.noteDemand(e.Now(), l.qi, DemandIssued, st.requestSize)
		if rt.tun.SerialRequester {
			// Ablation: the fetch chains on this process itself, then
			// resumes the loop — the literal synchronous Algorithm 3.
			return l.newFetch(snd, l.loopStep).run(e)
		}
		e.SpawnStep(w.fetchName, l.newFetch(snd, sim.DoneStep).runStep)
		// After(0) is the step-world Yield: the just-spawned fetch runs
		// (deterministically) before the next issue decision.
		return sim.After(0, l.loopStep)
	}
	return sim.Done()
}

// backedOff resumes the loop after an empty-cycle backoff, doubling the
// next backoff up to its ceiling.
func (l *reqLoop) backedOff(e *sim.Env) sim.Cont {
	if l.backoff < maxBackoff {
		l.backoff *= 2
	}
	return l.loop(e)
}
