package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/obs"
	"messengers/internal/sim"
	"messengers/internal/transport"
	"messengers/internal/value"
	"messengers/internal/vm"
	"messengers/internal/wire"
)

// ledger lists the per-layer metrics a --trace 1 run reports. A layer a
// workload does not exercise reads 0 there (for example transport.* on
// paper-sim, apps.* on the TCP workloads). README.md maps each metric to
// the end-to-end metric and workload it should move. trace.op_ms_p50 is
// the traced run's own median op: against the untraced op_ms_p50 it is
// the tracing overhead.
var ledger = []struct{ name, unit string }{
	{"trace.op_ms_p50", "ms"},
	{"host.steal_pct", "%"},
	{"vm.ns_per_step", "ns"},
	{"vm.segment_us", "us"},
	{"vm.steps_per_op", "count"},
	{"vm.segments_per_op", "count"},
	{"vm.snapshot_ns", "ns"},
	{"vm.snapshot_bytes", "B"},
	{"vm.restore_ns", "ns"},
	{"core.encode_ns", "ns"},
	{"core.decode_ns", "ns"},
	{"core.allocs_per_hop", "count"},
	{"transport.send_us", "us"},
	{"transport.frame_rtt_us", "us"},
	{"net.msgs_per_op", "count"},
	{"net.bytes_per_op", "B"},
	{"core.exec_wait_us", "us"},
	{"core.exec_run_us", "us"},
	{"gvt.rounds_per_op", "count"},
	{"gvt.ctl_msgs_per_op", "count"},
	{"gvt.suspends_per_op", "count"},
	{"gvt.round_ms", "ms"},
	{"gvt.pacing_ms_per_op", "ms"},
	{"serve.submit_us", "us"},
	{"serve.submit_new_us", "us"},
	{"serve.rejected", "count"},
	{"serve.gen_late_ms_p99", "ms"},
	{"compile.program_us", "us"},
	{"apps.msgr_ms", "ms"},
	{"apps.pvm_ms", "ms"},
	{"apps.seq_ms", "ms"},
	{"lan.bus_msgs_per_op", "count"},
	{"lan.bus_bytes_per_op", "B"},
	{"sim.makespan_s", "s"},
	{"native.compute_ms_per_op", "ms"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
}

// tick is the unit of /proc/stat times (USER_HZ is 100 on Linux).
const tick = 10 * time.Millisecond

// stealTicks reads the machine's cumulative CPU steal time from
// /proc/stat: time the hypervisor ran another guest while one of this
// machine's vCPUs wanted to run. It is 0 where /proc/stat is missing.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// stealShare is the share of the vCPU time in dt of wall time that the
// hypervisor took, given the steal ticks counted over it.
func stealShare(ticks int64, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return float64(time.Duration(ticks)*tick) / (float64(dt) * float64(runtime.NumCPU()))
}

// maxSteal is the share of vCPU time the hypervisor may take during an op
// before the op is left out of the timings. On the shared 2-vCPU machine
// the benchmark was built on, the steal share of a 20-s run ranged from 1%
// to 30%, and op times followed it; a quiet stretch steals 1-3%.
const maxSteal = 0.1

// timed returns the op times to report, in start order: those of the ops
// during which the hypervisor took at most maxSteal of the vCPU time, or,
// when fewer than a quarter of the ops qualify, the quarter with the least
// steal. The ops left out still count as attempted and are still checked.
func timed(o *outcome) []float64 {
	var out []float64
	for i, s := range o.opsSteal {
		if s <= maxSteal {
			out = append(out, o.opsMs[i])
		}
	}
	if 4*len(out) >= len(o.opsMs) {
		return out
	}
	limit := percentile(o.opsSteal, 0.25)
	out = out[:0]
	for i, s := range o.opsSteal {
		if s <= limit {
			out = append(out, o.opsMs[i])
		}
	}
	return out
}

// acc accumulates durations (or sizes) from many goroutines.
type acc struct{ n, sum atomic.Int64 }

func (a *acc) add(v int64) {
	a.n.Add(1)
	a.sum.Add(v)
}

// since adds the nanoseconds elapsed from t0.
func (a *acc) since(t0 time.Time) { a.add(int64(time.Since(t0))) }

// mean returns the mean value divided by unit (0 when empty).
func (a *acc) mean(unit float64) float64 {
	n := a.n.Load()
	if n == 0 {
		return 0
	}
	return float64(a.sum.Load()) / float64(n) / unit
}

// timedEngine wraps a TCP engine to time the three core.Engine calls the
// daemons make: Exec (queue wait and run time of each callback), Send
// (message encode plus frame write, which the engine does synchronously)
// and SetTimer (the delay requested, which on these workloads is the GVT
// pacing). Bind and the rest are forwarded by embedding. Frames arriving
// from peers reach the daemons inside the engine and are not counted here.
type timedEngine struct {
	*transport.TCPEngine
	wait, run, send, frame acc
	timerNs                atomic.Int64
}

// reset zeroes the accumulators (after warm-up, before the timed phase).
func (e *timedEngine) reset() {
	for _, a := range []*acc{&e.wait, &e.run, &e.send, &e.frame} {
		a.n.Store(0)
		a.sum.Store(0)
	}
	e.timerNs.Store(0)
}

func (e *timedEngine) Exec(d int, cost sim.Time, fn func()) {
	t0 := time.Now()
	e.TCPEngine.Exec(d, cost, func() {
		t1 := time.Now()
		e.wait.add(int64(t1.Sub(t0)))
		fn()
		e.run.since(t1)
	})
}

func (e *timedEngine) Send(src, dst int, msg *core.Msg) {
	e.frame.add(int64(msg.EncodedSize() + wire.FrameHeaderLen))
	t0 := time.Now()
	e.TCPEngine.Send(src, dst, msg)
	e.send.since(t0)
}

func (e *timedEngine) SetTimer(d int, delay sim.Time, fn func()) {
	e.timerNs.Add(int64(delay))
	e.TCPEngine.SetTimer(d, delay, fn)
}

// tcpSystem is a runtime System on loopback TCP daemons. Traced, its
// engine is wrapped in a timedEngine and it carries a metrics registry,
// and it holds the readings the ledger is measured from.
type tcpSystem struct {
	tcp     *transport.TCPEngine
	te      *timedEngine // nil when untraced
	sys     *core.System
	metrics *obs.Metrics // nil when untraced

	stats0 core.Stats
	net0   netCount
	proc0  procSnap
}

// newTCPSystem starts n loopback TCP daemons and a System over them.
func newTCPSystem(n int, topo *core.Topology, traced bool) (*tcpSystem, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcp, err := transport.NewTCPEngine(addrs)
	if err != nil {
		return nil, err
	}
	t := &tcpSystem{tcp: tcp}
	var eng core.Engine = tcp
	var opts []core.Option
	if traced {
		t.te = &timedEngine{TCPEngine: tcp}
		eng = t.te
		t.metrics = obs.NewMetrics()
		opts = append(opts, core.WithMetrics(t.metrics))
	}
	t.sys = core.NewSystem(eng, topo, opts...)
	return t, nil
}

// register registers the programs and waits until every daemon has
// installed them. System.Register installs a program through each
// daemon's local lane, and a hop arriving on the net lane, which the
// executor serves first, can overtake it and fail with "not in registry"
// (see CHANGES.md); a Do on every daemon queues behind the installs.
func (t *tcpSystem) register(progs ...*bytecode.Program) {
	for _, p := range progs {
		t.sys.Register(p)
	}
	t.settle()
}

// settle waits until every daemon has run the work queued on its local
// lane so far: program installs and injected Messengers.
func (t *tcpSystem) settle() {
	var wg sync.WaitGroup
	for i := 0; i < t.sys.NumDaemons(); i++ {
		wg.Add(1)
		t.sys.Do(i, func(*core.Daemon) { wg.Done() })
	}
	wg.Wait()
}

// startLedger takes the readings at the start of the timed ops (traced
// runs only).
func (t *tcpSystem) startLedger() {
	if t.te == nil {
		return
	}
	t.stats0, t.net0 = readStats(t.sys), readNet(t.metrics)
	t.te.reset()
	t.proc0 = readProc()
}

// fillLedger adds the process, system and engine metrics of the timed ops.
func (t *tcpSystem) fillLedger(o *outcome) {
	ops := o.attempted
	procLayers(o, t.proc0, readProc(), ops)
	statsLayers(o, t.stats0, readStats(t.sys), t.net0, readNet(t.metrics), ops)
	engineLayers(o, t.te, ops)
}

func (t *tcpSystem) close() { t.tcp.Close() }

// engineLayers fills the engine-wrapper metrics of a TCP workload.
func engineLayers(o *outcome, te *timedEngine, ops int64) {
	o.layers["core.exec_wait_us"] = te.wait.mean(1e3)
	o.layers["core.exec_run_us"] = te.run.mean(1e3)
	o.layers["transport.send_us"] = te.send.mean(1e3)
	o.layers["gvt.pacing_ms_per_op"] = float64(te.timerNs.Load()) / 1e6 / float64(ops)
	size := int(te.frame.mean(1))
	if size < wire.FrameHeaderLen {
		size = wire.FrameHeaderLen
	}
	o.layers["transport.frame_rtt_us"] = frameRTT(size - wire.FrameHeaderLen)
}

// netCount is a reading of the daemons' network counters from the
// Config.Metrics registry.
type netCount struct{ msgs, bytes int64 }

func readNet(m *obs.Metrics) netCount {
	return netCount{m.CounterValue("net.msgs"), m.CounterValue("net.bytes")}
}

// readStats sums every daemon's Stats, read on each daemon's executor.
// It is core.System.TotalStats plus the GVT control-message and
// round-time fields, which TotalStats leaves out.
func readStats(sys *core.System) core.Stats {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var t core.Stats
	for i := 0; i < sys.NumDaemons(); i++ {
		wg.Add(1)
		sys.Do(i, func(d *core.Daemon) {
			defer wg.Done()
			s := d.Stats
			mu.Lock()
			defer mu.Unlock()
			t.Steps += s.Steps
			t.Segments += s.Segments
			t.GVTRounds += s.GVTRounds
			t.GVTCtlMsgs += s.GVTCtlMsgs
			t.GVTRoundTime += s.GVTRoundTime
			t.Suspends += s.Suspends
		})
	}
	wg.Wait()
	return t
}

// statsLayers fills the per-op counts a System exposes, from the deltas
// between two TotalStats readings and two metrics-registry readings.
func statsLayers(o *outcome, before, after core.Stats, n0, n1 netCount, ops int64) {
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	o.layers["vm.steps_per_op"] = per(after.Steps - before.Steps)
	o.layers["vm.segments_per_op"] = per(after.Segments - before.Segments)
	o.layers["gvt.rounds_per_op"] = per(after.GVTRounds - before.GVTRounds)
	o.layers["gvt.ctl_msgs_per_op"] = per(after.GVTCtlMsgs - before.GVTCtlMsgs)
	o.layers["gvt.suspends_per_op"] = per(after.Suspends - before.Suspends)
	if r := after.GVTRounds - before.GVTRounds; r > 0 {
		o.layers["gvt.round_ms"] = float64(after.GVTRoundTime-before.GVTRoundTime) / 1e6 / float64(r)
	}
	o.layers["net.msgs_per_op"] = per(n1.msgs - n0.msgs)
	o.layers["net.bytes_per_op"] = per(n1.bytes - n0.bytes)
}

// procSnap is a reading of the process's CPU time and allocation counts.
type procSnap struct {
	cpu           time.Duration
	mallocs, allo uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		allo:    ms.TotalAlloc,
	}
}

// procLayers fills the process metrics from two readings around the timed
// phase.
func procLayers(o *outcome, a, b procSnap, ops int64) {
	o.layers["proc.cpu_ms_per_op"] = float64(b.cpu-a.cpu) / 1e6 / float64(ops)
	o.layers["proc.allocs_per_op"] = float64(b.mallocs-a.mallocs) / float64(ops)
	o.layers["proc.alloc_bytes_per_op"] = float64(b.allo-a.allo) / float64(ops)
}

// frameRTT times transport.WriteFrame/ReadFrame echoes of a size-byte
// payload over a loopback TCP pair and returns the median round trip in
// microseconds: the socket floor under the workload's frames.
func frameRTT(size int) float64 {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer l.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			p, err := transport.ReadFrame(c)
			if err != nil {
				return
			}
			if transport.WriteFrame(c, p) != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0
	}
	defer c.Close()
	payload := make([]byte, size)
	var rtts []float64
	for i := 0; i < 400; i++ {
		t0 := time.Now()
		if transport.WriteFrame(c, payload) != nil {
			return 0
		}
		if _, err := transport.ReadFrame(c); err != nil {
			return 0
		}
		if i >= 50 { // the first round trips warm the connection
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	return median(rtts)
}

// compileUs times compile.Compile on each source and returns the mean in
// microseconds.
func compileUs(srcs ...string) float64 {
	const reps = 50
	var total time.Duration
	for _, src := range srcs {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := compile.Compile("bench", src); err != nil {
				return 0
			}
		}
		total += time.Since(t0)
	}
	return float64(total) / 1e3 / float64(reps*len(srcs))
}

// replayHost is the vm.Host of a replayed Messenger: one node's
// variables; each network variable reads as its own name (a replayed hop
// goes nowhere, so any link value will do).
type replayHost struct{ vars map[string]value.Value }

func (h *replayHost) NodeVar(name string) value.Value       { return h.vars[name] }
func (h *replayHost) SetNodeVar(name string, v value.Value) { h.vars[name] = v }
func (h *replayHost) NetVar(name string) (value.Value, bool) {
	return value.Str(name), true
}
func (h *replayHost) Print(string) {}

// replaySpec is one of a workload's own Messengers, replayed outside the
// runtime: its program, injected variables, the node variables it finds,
// and the workload's natives (pure ones as the workload registers them,
// task-pool ones as stand-ins returning the same shapes). natives returns
// a fresh native handler for each replay.
type replaySpec struct {
	prog    *bytecode.Program
	vars    map[string]value.Value
	node    map[string]value.Value
	natives func() func(name string, args []value.Value) value.Value
}

// hopSamples bounds the hops per replayed Messenger whose costs are
// measured; the mandel worker alone pauses at thousands.
const hopSamples = 100

// replayLayers runs each spec's Messenger to its end with vm.Run, timing
// every segment, and at every hop-like pause times vm.Snapshot,
// vm.Restore (which includes the kind check), the core.Msg encode and
// core.DecodeMsg of a hop message carrying that state, and counts the
// allocations of one encode-decode-restore cycle.
func replayLayers(o *outcome, specs []replaySpec) {
	var seg, steps, segs, snap, snapB, rest, enc, dec, allocs acc
	const reps = 20
	for round := 0; round < 3; round++ {
		for _, sp := range specs {
			host := &replayHost{vars: value.CloneEnv(sp.node)}
			m := vm.New(sp.prog, value.CloneEnv(sp.vars))
			native := sp.natives()
			hops := 0
			for {
				t0 := time.Now()
				res, err := m.Run(host, 0)
				seg.since(t0)
				if err != nil {
					o.wrong = fmt.Errorf("replay %s: %w", sp.prog.Name, err)
					return
				}
				steps.add(res.Steps)
				segs.add(1)
				switch res.Pause {
				case vm.PauseEnd:
				case vm.PauseNative:
					m.PushResult(native(res.Native, res.Args))
					continue
				case vm.PauseHop, vm.PauseCreate, vm.PauseDelete:
					if hops++; hops <= hopSamples {
						if err := hopCosts(sp.prog, m, reps, &snap, &snapB, &rest, &enc, &dec, &allocs); err != nil {
							o.wrong = err
							return
						}
					}
					continue
				default:
					continue
				}
				break
			}
		}
	}
	if s := steps.sum.Load(); s > 0 {
		o.layers["vm.ns_per_step"] = float64(seg.sum.Load()) / float64(s)
	}
	o.layers["vm.segment_us"] = seg.mean(1e3)
	o.layers["vm.snapshot_ns"] = snap.mean(reps)
	o.layers["vm.snapshot_bytes"] = snapB.mean(1)
	o.layers["vm.restore_ns"] = rest.mean(reps)
	o.layers["core.encode_ns"] = enc.mean(reps)
	o.layers["core.decode_ns"] = dec.mean(reps)
	o.layers["core.allocs_per_hop"] = allocs.mean(reps)
}

// hopCosts measures one paused Messenger's hop costs, reps times each.
func hopCosts(prog *bytecode.Program, m *vm.VM, reps int, snap, snapB, rest, enc, dec, allocs *acc) error {
	var buf []byte
	var err error
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if buf, err = m.Snapshot(); err != nil {
			return fmt.Errorf("snapshot %s: %w", prog.Name, err)
		}
	}
	snap.since(t0)
	snapB.add(int64(len(buf)))
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err = vm.Restore(prog, buf); err != nil {
			return fmt.Errorf("restore %s: %w", prog.Name, err)
		}
	}
	rest.since(t0)

	msg := &core.Msg{Kind: core.MsgMessenger, From: 1, ProgHash: prog.Hash(), XferVM: m,
		MsgrID: 7, LVT: 1, DestNode: 3, Last: "link"}
	var frame []byte
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		frame = msg.Encode()
	}
	enc.since(t0)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if _, err = core.DecodeMsg(frame); err != nil {
			return fmt.Errorf("decode %s hop: %w", prog.Name, err)
		}
	}
	dec.since(t0)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < reps; i++ {
		d, err := core.DecodeMsg(msg.Encode())
		if err != nil {
			return err
		}
		if _, err := vm.Restore(prog, d.Snapshot); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	allocs.add(int64(ms1.Mallocs - ms0.Mallocs))
	return nil
}
