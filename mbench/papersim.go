package main

import (
	"fmt"
	"time"

	"messengers/internal/apps"
	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/lan"
	"messengers/internal/matmul"
	"messengers/internal/obs"
	"messengers/internal/value"
)

// paper-sim: the paper's evaluation on the simulated testbed. One op is
// one Fig. 4-style Mandelbrot point and one Fig. 12-style matmul point,
// each run as MESSENGERS, as PVM and sequentially through internal/apps.
const (
	simMandelSize    = 192
	simMandelGrid    = 16
	simMandelWorkers = 4
	simMatM          = 2
	simMatS          = 64
)

type paperSimBench struct {
	cm       *lan.CostModel
	mp       apps.MandelParams
	xp       apps.MatmulParams
	want     []uint16  // the image computed directly
	wantC    []float64 // the product by the triple loop
	first    []int64   // the first op's simulated makespans
	traced   bool
	msgr     time.Duration // per-implementation wall time (traced)
	pvm, seq time.Duration
	counts   map[string]int64 // summed obs counters of the distributed runs
	last     []any            // the last op's results, live when heap_mb is read
	makespan int64
	start    procSnap
}

func buildPaperSim(seed int64, traced bool) (workload, error) {
	b := &paperSimBench{cm: lan.DefaultCostModel(), traced: traced, counts: map[string]int64{}}
	b.mp = apps.PaperMandelParams(simMandelSize, simMandelGrid, simMandelWorkers)
	b.xp = apps.MatmulParams{M: simMatM, S: simMatS, Host: lan.SPARC110, Seed: seed}
	n := b.xp.N()
	b.want = escapeImage(paperRegion, simMandelSize, simMandelSize, b.mp.MaxIter)
	b.wantC = tripleLoop(matmul.Random(n, seed).Data, matmul.Random(n, seed+1).Data, n)
	if err := b.op(); err != nil {
		return nil, fmt.Errorf("warm-up point: %w", err)
	}
	return b, nil
}

// clock runs f, adding its wall time to *d when traced.
func (b *paperSimBench) clock(d *time.Duration, f func()) {
	t0 := time.Now()
	f()
	if b.traced {
		*d += time.Since(t0)
	}
}

// count adds a distributed run's counters to the op totals.
func (b *paperSimBench) count(m *obs.Metrics) {
	if !b.traced || m == nil {
		return
	}
	for _, k := range []string{"bus.msgs", "bus.bytes", "vm.steps", "vm.segments",
		"gvt.rounds", "gvt.ctl.msgs", "gvt.suspends", "net.msgs", "net.bytes"} {
		b.counts[k] += m.CounterValue(k)
	}
}

// op runs both points three ways and checks that all implementations
// agree with the direct computations and that the makespans repeat.
func (b *paperSimBench) op() error {
	var mm, mp *apps.MandelResult
	var ms *apps.MandelResult
	var xm, xp, xs *apps.MatmulResult
	var err1, err2, err3, err4 error
	b.clock(&b.msgr, func() { mm, err1 = apps.MandelMessengers(b.cm, b.mp) })
	b.clock(&b.pvm, func() { mp, err2 = apps.MandelPVM(b.cm, b.mp) })
	b.clock(&b.seq, func() { ms = apps.MandelSequential(b.cm, b.mp) })
	b.clock(&b.msgr, func() { xm, err3 = apps.MatmulMessengers(b.cm, b.xp) })
	b.clock(&b.pvm, func() { xp, err4 = apps.MatmulPVM(b.cm, b.xp) })
	b.clock(&b.seq, func() { xs = apps.MatmulSequentialNaive(b.cm, b.xp) })
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return err
		}
	}
	for _, r := range []struct {
		name string
		res  *apps.MandelResult
	}{{"messengers", mm}, {"pvm", mp}, {"sequential", ms}} {
		if err := checkImage(r.res.Image.Pix, b.want, nil); err != nil {
			return fmt.Errorf("mandel %s: %w", r.name, err)
		}
	}
	for _, r := range []struct {
		name string
		res  *apps.MatmulResult
	}{{"messengers", xm}, {"pvm", xp}, {"sequential", xs}} {
		if err := checkMatrix(r.res.C.Data, b.wantC); err != nil {
			return fmt.Errorf("matmul %s: %w", r.name, err)
		}
	}
	b.last = []any{mm, mp, ms, xm, xp, xs}
	spans := []int64{int64(mm.Elapsed), int64(mp.Elapsed), int64(ms.Elapsed),
		int64(xm.Elapsed), int64(xp.Elapsed), int64(xs.Elapsed)}
	if b.first == nil {
		b.first = spans
	}
	if err := checkMakespans(b.first, spans); err != nil {
		return err
	}
	if b.traced {
		for _, s := range spans {
			b.makespan += s
		}
		b.count(mm.Obs)
		b.count(mp.Obs)
		b.count(xm.Obs)
		b.count(xp.Obs)
	}
	return nil
}

func (b *paperSimBench) measure(d time.Duration) *outcome {
	b.msgr, b.pvm, b.seq, b.makespan = 0, 0, 0, 0
	b.counts = map[string]int64{}
	b.start = readProc()
	return closedLoop(d, b.op)
}

func (b *paperSimBench) layers(o *outcome) {
	ops := o.attempted
	procLayers(o, b.start, readProc(), ops)
	per := func(v int64) float64 { return float64(v) / float64(ops) }
	o.layers["apps.msgr_ms"] = float64(b.msgr) / 1e6 / float64(ops)
	o.layers["apps.pvm_ms"] = float64(b.pvm) / 1e6 / float64(ops)
	o.layers["apps.seq_ms"] = float64(b.seq) / 1e6 / float64(ops)
	o.layers["sim.makespan_s"] = float64(b.makespan) / 1e9 / float64(ops)
	o.layers["lan.bus_msgs_per_op"] = per(b.counts["bus.msgs"])
	o.layers["lan.bus_bytes_per_op"] = per(b.counts["bus.bytes"])
	o.layers["vm.steps_per_op"] = per(b.counts["vm.steps"])
	o.layers["vm.segments_per_op"] = per(b.counts["vm.segments"])
	o.layers["gvt.rounds_per_op"] = per(b.counts["gvt.rounds"])
	o.layers["gvt.ctl_msgs_per_op"] = per(b.counts["gvt.ctl.msgs"])
	o.layers["gvt.suspends_per_op"] = per(b.counts["gvt.suspends"])
	o.layers["net.msgs_per_op"] = per(b.counts["net.msgs"])
	o.layers["net.bytes_per_op"] = per(b.counts["net.bytes"])
	o.layers["compile.program_us"] = compileUs(apps.MsgrMandelScript, apps.MsgrDistributeA, apps.MsgrRotateB)

	progs := map[string]*bytecode.Program{}
	for name, src := range map[string]string{"mandel_worker": apps.MsgrMandelScript,
		"distribute_A": apps.MsgrDistributeA, "rotate_B": apps.MsgrRotateB} {
		p, err := compile.Compile(name, src)
		if err != nil {
			o.wrong = err
			return
		}
		progs[name] = p
	}
	blks := blocks(simMandelSize, simMandelSize, simMandelGrid)
	mandelNatives := func() func(string, []value.Value) value.Value {
		tasks := 0
		return func(name string, args []value.Value) value.Value {
			switch name {
			case "next_task":
				if tasks >= len(blks) {
					return value.Nil()
				}
				tasks++
				return value.Int(int64(tasks - 1))
			case "compute":
				return value.Bytes(escapeBlock(paperRegion, simMandelSize, simMandelSize, blks[args[0].AsInt()], b.mp.MaxIter))
			}
			return value.Nil()
		}
	}
	a := matmul.Random(b.xp.N(), b.xp.Seed)
	matNatives := func() func(string, []value.Value) value.Value {
		return func(name string, args []value.Value) value.Value {
			if name == "copy_block" {
				return args[0].Clone()
			}
			c := args[2].AsMat()
			matmul.AddMul(c, args[0].AsMat(), args[1].AsMat())
			return value.Matrix(c)
		}
	}
	node := map[string]value.Value{
		"resid_A": value.Matrix(matmul.GetBlock(a, 0, 0, simMatS)),
		"resid_B": value.Matrix(matmul.GetBlock(a, 0, 1, simMatS)),
		"curr_A":  value.Matrix(matmul.GetBlock(a, 1, 0, simMatS)),
		"C":       value.Matrix(value.NewMat(simMatS, simMatS)),
	}
	vars := map[string]value.Value{"i": value.Int(0), "j": value.Int(0), "m": value.Int(simMatM)}
	replayLayers(o, []replaySpec{
		{prog: progs["mandel_worker"], natives: mandelNatives},
		{prog: progs["distribute_A"], vars: vars, node: node, natives: matNatives},
		{prog: progs["rotate_B"], vars: vars, node: node, natives: matNatives},
	})
}

func (b *paperSimBench) close() {}
