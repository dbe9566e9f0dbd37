package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/serve"
	"messengers/internal/value"
)

// serve-tcp: serve.Server over a ring of TCP daemons, driven open-loop by
// one generator goroutine on a fixed schedule of waves whose sessions are
// drawn from the seed. One op is one session, timed from its due time to
// its completion.
//
// Sessions arrive in waves rather than one by one. With Poisson arrivals
// at a rate below capacity a session's latency is mostly goroutine
// wake-ups, and on a small virtual machine those vary so much with the
// host that ten runs spread p90 by 43% and p99 by 66% of their medians.
// A wave keeps the daemons busy until it drains, so its latencies are
// made of the runtime's own work.
const (
	serveDaemons = 4
	serveTenants = 4
	serveHops    = 4      // ring hops of a walker or unseen session
	serveBudget  = 200000 // per-session step budget: 2.5x a compute session's worst case
	// Sessions arrive in waves, a burst every wavePeriod. The reference
	// phase offers waves of serveRefRate sessions/s, below capacity,
	// serveRefWaves of them before each step of the max_rate ladder;
	// op_ms_* come from it. The ladder takes serveLadderShare of the run:
	// one-second steps at serveLadderBase sessions/s growing by
	// serveLadderGrowth per step, all of them run whatever their outcome.
	// max_rate is where the p99 reaches serveLimitMs, the wave period:
	// past it a wave is still running when the next arrives, and the
	// backlog grows.
	wavePeriod        = 500 * time.Millisecond
	serveLimitMs      = 500.0
	serveRefRate      = 1500.0
	serveRefWaves     = 4
	serveLadderShare  = 0.7
	serveLadderBase   = 4500.0
	serveLadderGrowth = 1.09

	// Session mix (percent): ring walkers, MSL compute, unseen programs.
	serveComputePct = 25
	serveUnseenPct  = 5

	computePts = 12  // points per compute session
	computeLim = 128 // escape-time iteration cap of the compute kernel
)

// walkerSrc walks the ring, counting visits in node variables.
const walkerSrc = `
	for (k = 0; k < hops; k++) {
		node.visits = node.visits + 1;
		hop(ll = "ring", ldir = +);
	}
`

// computeSrc sums escape-time counts along a row of points, hops once and
// deposits the sum: tens of thousands of bytecode steps on one daemon.
const computeSrc = `
	n = 0;
	for (p = 0; p < pts; p++) {
		cr = x0 + p * dx;
		zr = 0.0;
		zi = 0.0;
		k = 0;
		while (k < lim && zr * zr + zi * zi <= 4.0) {
			t = zr * zr - zi * zi + cr;
			zi = 2.0 * zr * zi + ci;
			zr = t;
			k++;
		}
		n = n + k;
	}
	hop(ll = "ring", ldir = +);
	deposit(sid, n);
`

// unseenSrc carries seeded constants in its text, so every one is a
// program the server has not seen: it must compile, verify and lower it
// and add it to its program cache. It visits its node once and deposits
// tag = a*b + c. It does not hop: a just-registered program's hop can
// outrun its registration on the next daemon (see CHANGES.md), and every
// unseen session is just-registered.
const unseenSrc = `
	tag = %d * %d + %d;
	node.visits = node.visits + 1;
	deposit(sid, tag);
`

// computeKernel is computeSrc evaluated in Go, operation for operation.
func computeKernel(x0, dx, ci float64) int64 {
	var n int64
	for p := 0; p < computePts; p++ {
		cr := x0 + float64(p)*dx
		zr, zi := 0.0, 0.0
		k := 0
		for k < computeLim && zr*zr+zi*zi <= 4.0 {
			t := zr*zr - zi*zi + cr
			zi = 2.0*zr*zi + ci
			zr = t
			k++
		}
		n += int64(k)
	}
	return n
}

type sessionKind uint8

const (
	kindWalker sessionKind = iota
	kindCompute
	kindUnseen
)

// arrival is one scheduled session.
type arrival struct {
	due  time.Duration // offset from the phase start
	kind sessionKind
	sub  serve.Submission
	want int64 // expected deposit (compute and unseen sessions)
}

type serveBench struct {
	*tcpSystem
	srv  *serve.Server
	rng  *rand.Rand
	next int64 // next session index (the deposit key)

	slots *slots
	start time.Time

	// visits counts the node visits admitted sessions make: serveHops per
	// walker, one per unseen session.
	visits atomic.Int64

	errsSeen  int
	traced    bool
	submit    acc // Submit on a cached program (traced)
	submitNew acc // Submit on an unseen program (traced)
	late      []float64
}

// slots holds per-session results. Deposits are indexed by session index
// (the sid variable), completions by the server's session id; the server
// numbers only submissions, so both stay below the number of arrivals.
type slots struct {
	depCount []atomic.Int32
	depVal   []atomic.Int64
	// done[id] is the completion time (ns since start, +1) of the server's
	// session id; evicted[id] marks quota evictions.
	done    []atomic.Int64
	evicted []atomic.Bool
}

func newSlots(n int) *slots {
	return &slots{
		depCount: make([]atomic.Int32, n),
		depVal:   make([]atomic.Int64, n),
		done:     make([]atomic.Int64, n),
		evicted:  make([]atomic.Bool, n),
	}
}

func buildServe(seed int64, traced bool) (workload, error) {
	b := &serveBench{traced: traced, rng: rand.New(rand.NewSource(seed)), start: time.Now()}
	b.slots = newSlots(1024) // the warm-up's; measure sizes its own

	var err error
	if b.tcpSystem, err = newTCPSystem(serveDaemons, core.Ring(serveDaemons), traced); err != nil {
		return nil, err
	}
	var spec core.NetSpec
	for i := 0; i < serveDaemons; i++ {
		spec.Nodes = append(spec.Nodes, core.NetNode{Name: fmt.Sprintf("r%d", i), Daemon: i})
		spec.Links = append(spec.Links, core.NetLink{
			A: fmt.Sprintf("r%d", i), B: fmt.Sprintf("r%d", (i+1)%serveDaemons), Name: "ring", Dir: 1})
	}
	if err := b.sys.BuildNetwork(spec); err != nil {
		b.close()
		return nil, err
	}
	b.sys.RegisterNative("deposit", b.deposit)

	var tenants []serve.TenantConfig
	for i := 0; i < serveTenants; i++ {
		tenants = append(tenants, serve.TenantConfig{ID: fmt.Sprintf("t%d", i), Quota: serve.Quota{
			StepBudget: serveBudget,
			MemBudget:  64 << 10,
			MaxQueue:   2048,
			MaxLive:    2048,
		}})
	}
	b.srv, err = serve.New(b.sys, serve.Config{Tenants: tenants, Metrics: b.metrics, OnComplete: b.complete})
	if err != nil {
		b.close()
		return nil, err
	}
	if err := b.warmUp(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warmUp runs one walker and one compute session per tenant, which dials
// the ring and puts each tenant's two shared programs in the server's
// cache and every daemon's registry, and one unseen session. A session
// whose program the server registered moments before can reach another
// daemon ahead of the registration and fail with "not in registry" (see
// CHANGES.md); the warm-up is repeated until a round runs clean, since the
// timed phase counts every runtime error as a failed op.
func (b *serveBench) warmUp() error {
	for round := 0; ; round++ {
		errs0 := len(b.sys.Errors())
		var warm []arrival
		for t := 0; t < serveTenants; t++ {
			for _, k := range []sessionKind{kindWalker, kindCompute} {
				a := b.arrival(0, k)
				a.sub.Tenant = fmt.Sprintf("t%d", t)
				warm = append(warm, a)
			}
		}
		warm = append(warm, b.arrival(0, kindUnseen))
		for _, a := range warm {
			if _, _, err := b.srv.Submit(a.sub); err != nil {
				return fmt.Errorf("warm-up submit: %w", err)
			}
		}
		b.srv.WaitIdle()
		if errs := b.sys.Errors(); len(errs) > errs0 {
			if round < 3 {
				continue
			}
			return fmt.Errorf("warm-up: runtime error: %v", errs[len(errs)-1])
		}
		b.errsSeen = len(b.sys.Errors())
		visits, err := b.ringVisits()
		if err != nil {
			return err
		}
		b.visits.Store(visits)
		for _, a := range warm {
			if err := b.checkSession(a.sub.Vars["sid"].AsInt(), a); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
}

func (b *serveBench) deposit(_ *core.NativeCtx, args []value.Value) (value.Value, error) {
	s, sid := b.slots, args[0].AsInt()
	if sid < 0 || sid >= int64(len(s.depVal)) {
		return value.Nil(), fmt.Errorf("deposit: no session %d", sid)
	}
	s.depVal[sid].Store(args[1].AsInt())
	s.depCount[sid].Add(1)
	return value.Nil(), nil
}

func (b *serveBench) complete(c serve.Completion) {
	s := b.slots
	if c.Session >= uint64(len(s.done)) {
		return
	}
	if c.Evicted {
		s.evicted[c.Session].Store(true)
	}
	s.done[c.Session].Store(int64(time.Since(b.start)) + 1)
}

// arrival draws the next session of the given kind from the seed.
func (b *serveBench) arrival(due time.Duration, kind sessionKind) arrival {
	sid := b.next
	b.next++
	d := int(sid % serveDaemons)
	a := arrival{due: due, kind: kind, sub: serve.Submission{
		Tenant: fmt.Sprintf("t%d", sid%serveTenants),
		Node:   fmt.Sprintf("r%d", d),
		Daemon: d,
		Vars:   map[string]value.Value{"sid": value.Int(sid)},
	}}
	switch kind {
	case kindWalker:
		a.sub.Name, a.sub.Source = "walker", walkerSrc
		a.sub.Vars["hops"] = value.Int(serveHops)
	case kindCompute:
		x0 := -1.0 + b.rng.Float64()
		ci := -0.5 + b.rng.Float64()
		const dx = 0.01
		a.sub.Name, a.sub.Source = "compute", computeSrc
		a.sub.Vars["x0"], a.sub.Vars["ci"], a.sub.Vars["dx"] = value.Num(x0), value.Num(ci), value.Num(dx)
		a.sub.Vars["pts"], a.sub.Vars["lim"] = value.Int(computePts), value.Int(computeLim)
		a.want = computeKernel(x0, dx, ci)
	case kindUnseen:
		x, y, z := b.rng.Int63n(1<<20), b.rng.Int63n(1<<20), b.rng.Int63n(1<<20)
		a.sub.Name, a.sub.Source = "unseen", fmt.Sprintf(unseenSrc, x, y, z)
		a.want = x*y + z
	}
	return a
}

// schedule draws the arrivals of d at rate sessions/s: a wave of
// rate*wavePeriod sessions due at the start of every wavePeriod, each of a
// seeded kind.
func (b *serveBench) schedule(rate float64, d time.Duration) []arrival {
	var out []arrival
	n := int(math.Round(rate * wavePeriod.Seconds()))
	for due := time.Duration(0); due < d; due += wavePeriod {
		for i := 0; i < n; i++ {
			kind := kindWalker
			switch r := b.rng.Intn(100); {
			case r < serveUnseenPct:
				kind = kindUnseen
			case r < serveUnseenPct+serveComputePct:
				kind = kindCompute
			}
			out = append(out, b.arrival(due, kind))
		}
	}
	return out
}

// checkSession checks a completed session's deposit.
func (b *serveBench) checkSession(sid int64, a arrival) error {
	if a.kind == kindWalker {
		if n := b.slots.depCount[sid].Load(); n != 0 {
			return fmt.Errorf("walker session %d deposited %d times", sid, n)
		}
		return nil
	}
	return checkDeposit(sid, b.slots.depCount[sid].Load(), b.slots.depVal[sid].Load(), a.want)
}

// sent is one submitted arrival: its server session id (0 if rejected)
// and when it was due, in ns since b.start.
type sent struct {
	a   arrival
	sid int64
	id  uint64
	due int64
}

// offer submits arrivals on their schedule from the calling goroutine,
// sleeping until each is due; a session is due at phase start + a.due.
func (b *serveBench) offer(arr []arrival) []sent {
	out := make([]sent, len(arr))
	phase := time.Now()
	for i, a := range arr {
		if wait := a.due - time.Since(phase); wait > 0 {
			time.Sleep(wait)
		}
		due := int64(phase.Sub(b.start) + a.due)
		var t0 time.Time
		if b.traced {
			t0 = time.Now()
			b.late = append(b.late, float64(int64(t0.Sub(b.start))-due)/1e6)
		}
		id, _, err := b.srv.Submit(a.sub)
		if b.traced {
			if a.kind == kindUnseen {
				b.submitNew.since(t0)
			} else {
				b.submit.since(t0)
			}
		}
		out[i] = sent{a: a, sid: a.sub.Vars["sid"].AsInt(), due: due}
		if err == nil {
			out[i].id = id
			b.admitted(a)
		} else {
			var rej *serve.Reject
			if !errors.As(err, &rej) || rej.Code != serve.RejectBackpressure {
				fmt.Fprintf(os.Stderr, "mbench: submit: %v\n", err)
			}
		}
	}
	return out
}

// ringVisits sums the ring nodes' visit counters (the system is idle).
func (b *serveBench) ringVisits() (int64, error) {
	var visits int64
	for i := 0; i < serveDaemons; i++ {
		vars, ok := b.sys.ReadNodeVars(i, fmt.Sprintf("r%d", i))
		if !ok {
			return 0, fmt.Errorf("ring node r%d missing", i)
		}
		visits += vars["visits"].AsInt()
	}
	return visits, nil
}

// admitted notes an admitted session's visits for the visit check.
func (b *serveBench) admitted(a arrival) {
	switch a.kind {
	case kindWalker:
		b.visits.Add(serveHops)
	case kindUnseen:
		b.visits.Add(1)
	}
}

// phase offers arr and drains it, and returns with the host's steal share
// while the sessions ran. The next phase starts at once: a wave that
// finds the daemons idle pays their wake-ups, which vary with the host.
// A reference wave (collect set) starts after a forced garbage
// collection: a ladder step leaves a collection cycle part done, and a
// wave that inherited one ran two to three times as long as its
// neighbours, one wave in five.
func (b *serveBench) phase(arr []arrival, collect bool) ([]sent, float64) {
	if collect {
		runtime.GC()
	}
	start, s0 := time.Now(), stealTicks()
	out := b.offer(arr)
	b.drain(5 * time.Second)
	return out, stealShare(stealTicks()-s0, time.Since(start))
}

// drain waits until every admitted session has completed, up to limit; a
// session still running then is counted as never completed.
func (b *serveBench) drain(limit time.Duration) {
	t0 := time.Now()
	for (b.srv.LiveSessions() > 0 || queued(b.srv) > 0) && time.Since(t0) < limit {
		time.Sleep(time.Millisecond)
	}
}

func queued(s *serve.Server) int {
	n := 0
	for _, ts := range s.Stats() {
		n += ts.Queue
	}
	return n
}

// latencies returns the latency (ms) of each sent session; rejected and
// unfinished sessions read +Inf. It counts the sessions into o as
// attempted, and as failed any that never completed, was evicted or
// deposited wrongly, and any rejection when rejectFails is set.
func (b *serveBench) latencies(ss []sent, o *outcome, rejectFails bool) []float64 {
	lat := make([]float64, 0, len(ss))
	for _, s := range ss {
		o.attempted++
		done := int64(0)
		if s.id > 0 && s.id < uint64(len(b.slots.done)) {
			done = b.slots.done[s.id].Load()
		}
		var err error
		switch {
		case s.id == 0:
			if rejectFails {
				err = fmt.Errorf("session %d rejected at the reference rate", s.sid)
			}
		case done == 0:
			err = fmt.Errorf("session %d never completed", s.sid)
		case b.slots.evicted[s.id].Load():
			err = fmt.Errorf("session %d evicted", s.sid)
		default:
			err = b.checkSession(s.sid, s.a)
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "mbench: %v\n", err)
		}
		if done == 0 || err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, float64(done-1-s.due)/1e6)
	}
	return lat
}

func (b *serveBench) measure(d time.Duration) *outcome {
	o := &outcome{layers: map[string]float64{}}
	b.startLedger()
	// The reference phase is cut into segments of serveRefWaves waves,
	// one segment before each ladder step, so that it samples the whole
	// run: the host's slow spells last seconds, and a reference phase
	// taken in one block can fall in one. A reference wave drains in about
	// a tenth of a second, and the next is offered as soon as it has. The
	// ladder gets its share of the run in one-second steps, less a tenth
	// for draining. A step ends when its last wave has drained, which under
	// capacity is well before its second.
	steps := max(int(time.Duration(float64(d)*serveLadderShare)/(1100*time.Millisecond)), 1)
	// The whole schedule is drawn before the first session is offered.
	refWaves := make([][]arrival, steps*serveRefWaves)
	ladder := make([][]arrival, steps)
	for k := range ladder {
		for r := 0; r < serveRefWaves; r++ {
			refWaves[k*serveRefWaves+r] = b.schedule(serveRefRate, wavePeriod)
		}
		ladder[k] = b.schedule(serveLadderBase*math.Pow(serveLadderGrowth, float64(k)), time.Second)
	}
	b.slots = newSlots(int(b.next) + 1)

	var refSent []sent
	var refSteal []float64 // per reference session: its wave's steal share
	stepSent := make([][]sent, steps)
	stepSteal := make([]float64, steps)
	for k := range ladder {
		for _, wave := range refWaves[k*serveRefWaves : (k+1)*serveRefWaves] {
			ss, steal := b.phase(wave, true)
			refSent = append(refSent, ss...)
			for range ss {
				refSteal = append(refSteal, steal)
			}
		}
		stepSent[k], stepSteal[k] = b.phase(ladder[k], false)
	}

	for i, l := range b.latencies(refSent, o, true) {
		if !math.IsInf(l, 1) {
			o.opsMs = append(o.opsMs, l)
			o.opsSteal = append(o.opsSteal, refSteal[i])
		}
	}
	// Ladder steps the hypervisor slowed are left out of the fit, as
	// timed() leaves out ops, while at least three steps remain.
	quiet := 0
	for _, s := range stepSteal {
		if s <= maxSteal {
			quiet++
		}
	}
	var rates, p99s []float64
	for k, ss := range stepSent {
		p99 := tail(b.latencies(ss, o, false), 0.99)
		if quiet >= 3 && stepSteal[k] > maxSteal {
			continue
		}
		rates = append(rates, serveLadderBase*math.Pow(serveLadderGrowth, float64(k)))
		p99s = append(p99s, p99)
	}
	o.maxRate = crossing(rates, p99s, serveLimitMs)
	o.wrong = b.runChecks()
	return o
}

// crossing returns the offered rate at which the ladder's p99 reaches
// limit, read off the least-squares line through the steps' (log rate,
// log p99) points; steps whose p99 is infinite (a rejected or lost
// session in the tail) are left out. Below capacity a wave's p99 grows
// about in proportion to its size, so the line fits the whole ladder, and
// every step steadies the estimate (taken from the two steps that bracket
// the limit alone, it spread by a fifth of its median over ten runs). The
// line may be followed past either end of the ladder; if it does not
// rise, or only one step is finite, the top finite rate is returned, and
// 0 if none is.
func crossing(rates, p99s []float64, limit float64) float64 {
	var xs, ys []float64
	for k, p := range p99s {
		if !math.IsInf(p, 1) {
			xs = append(xs, math.Log(rates[k]))
			ys = append(ys, math.Log(p))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 || sxy <= 0 {
		return math.Exp(xs[len(xs)-1])
	}
	slope := sxy / sxx
	return math.Exp(mx + (math.Log(limit)-my)/slope)
}

// runChecks checks the properties of the whole run: completions equal
// admissions, no tenant exceeded its step budget, no quota violation, no
// runtime error, and the ring's visit count equals the visits of every
// admitted session.
func (b *serveBench) runChecks() error {
	if errs := b.sys.Errors(); len(errs) > b.errsSeen {
		return fmt.Errorf("runtime error: %v", errs[len(errs)-1])
	}
	if v := b.srv.Violations(); v != 0 {
		return fmt.Errorf("%d quota violations", v)
	}
	var admitted, finished, evicted int64
	for _, ts := range b.srv.Stats() {
		admitted += ts.Admitted
		finished += ts.Completed + ts.Evicted
		evicted += ts.Evicted
		if ts.MaxSessionSteps > serveBudget {
			return fmt.Errorf("tenant %s: a session used %d steps, budget %d", ts.ID, ts.MaxSessionSteps, serveBudget)
		}
	}
	if finished != admitted {
		return fmt.Errorf("%d completions for %d admissions", finished, admitted)
	}
	if evicted > 0 {
		return nil // evicted walkers visit part of the ring; already failed ops
	}
	visits, err := b.ringVisits()
	if err != nil {
		return err
	}
	return checkVisits(visits, b.visits.Load())
}

func (b *serveBench) layers(o *outcome) {
	b.fillLedger(o)
	o.layers["serve.submit_us"] = b.submit.mean(1e3)
	o.layers["serve.submit_new_us"] = b.submitNew.mean(1e3)
	o.layers["serve.gen_late_ms_p99"] = percentile(b.late, 0.99)
	var rejected int64
	for _, ts := range b.srv.Stats() {
		rejected += ts.Rejected
	}
	o.layers["serve.rejected"] = float64(rejected)
	unseen := fmt.Sprintf(unseenSrc, 12345, 678, 9)
	o.layers["compile.program_us"] = compileUs(walkerSrc, computeSrc, unseen)

	var specs []replaySpec
	natives := func() func(string, []value.Value) value.Value {
		return func(string, []value.Value) value.Value { return value.Nil() }
	}
	for _, a := range []arrival{b.arrival(0, kindWalker), b.arrival(0, kindCompute)} {
		p, err := compile.Compile(a.sub.Name, a.sub.Source)
		if err != nil {
			o.wrong = err
			return
		}
		specs = append(specs, replaySpec{prog: p, vars: a.sub.Vars, node: map[string]value.Value{}, natives: natives})
	}
	p, err := compile.Compile("unseen", unseen)
	if err != nil {
		o.wrong = err
		return
	}
	specs = append(specs, replaySpec{prog: p, vars: map[string]value.Value{"sid": value.Int(0)},
		node: map[string]value.Value{}, natives: natives})
	replayLayers(o, specs)
}
