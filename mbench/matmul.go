package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"messengers/internal/apps"
	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/value"
)

// matmul-tcp: the paper's Fig. 10/11 distribute_A/rotate_B block
// multiplication on a 2x2 grid of TCP daemons, coordinated by global
// virtual time at the default GVT interval. One op is one full multiply.
const (
	matM = 2  // matM x matM grid of daemons and blocks
	matS = 64 // block size: a 64x64 float64 block is 32 KiB on every hop
	matN = matM * matS
)

// The paper's scripts wake at absolute virtual times 0..m. Repeated
// multiplies on one system need each op's wake times past the previous
// op's, so each sched_abs is offset by the op's time base t0, passed in as
// a Messenger variable; nothing else in the listings changes.
var (
	matDistribute = strings.Replace(apps.MsgrDistributeA, "sched_abs(", "sched_abs(t0 + ", 1)
	matRotate     = strings.Replace(apps.MsgrRotateB, "sched_abs(", "sched_abs(t0 + ", 1)
)

type matmulBench struct {
	*tcpSystem
	progs    []*bytecode.Program
	a, b     []float64 // inputs, row-major matN x matN
	want     []float64 // a·b by the triple loop
	ops      int       // ops started so far, including warm-up: sets t0
	errsSeen int

	traced   bool
	nativeNs atomic.Int64
}

func nodeName(i, j int) string { return fmt.Sprintf("n%d_%d", i, j) }

// randomMatrix returns an n x n row-major matrix with entries in [-1, 1).
func randomMatrix(r *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = 2*r.Float64() - 1
	}
	return m
}

// blockOf copies block (bi, bj) of the row-major n x n matrix m.
func blockOf(m []float64, n, bi, bj, s int) *value.Mat {
	out := value.NewMat(s, s)
	for r := 0; r < s; r++ {
		copy(out.Data[r*s:(r+1)*s], m[(bi*s+r)*n+bj*s:])
	}
	return out
}

func buildMatmul(seed int64, traced bool) (workload, error) {
	r := rand.New(rand.NewSource(seed))
	b := &matmulBench{traced: traced, a: randomMatrix(r, matN), b: randomMatrix(r, matN)}
	b.want = tripleLoop(b.a, b.b, matN)

	n := matM * matM
	var err error
	if b.tcpSystem, err = newTCPSystem(n, core.FullMesh(n), traced); err != nil {
		return nil, err
	}

	// Fig. 10: rows fully connected by undirected "row" links, columns
	// directed rings of "column" links pointing up.
	var spec core.NetSpec
	for i := 0; i < matM; i++ {
		for j := 0; j < matM; j++ {
			spec.Nodes = append(spec.Nodes, core.NetNode{Name: nodeName(i, j), Daemon: i*matM + j})
			for j2 := j + 1; j2 < matM; j2++ {
				spec.Links = append(spec.Links, core.NetLink{A: nodeName(i, j), B: nodeName(i, j2), Name: "row"})
			}
			spec.Links = append(spec.Links, core.NetLink{
				A: nodeName(i, j), B: nodeName((i-1+matM)%matM, j), Name: "column", Dir: 1})
		}
	}
	if err := b.sys.BuildNetwork(spec); err != nil {
		b.close()
		return nil, err
	}
	b.sys.RegisterNative("copy_block", b.copyBlock)
	b.sys.RegisterNative("block_multiply", b.blockMultiply)
	for _, s := range []struct{ name, src string }{{"distribute_A", matDistribute}, {"rotate_B", matRotate}} {
		p, err := compile.Compile(s.name, s.src)
		if err != nil {
			b.close()
			return nil, err
		}
		b.progs = append(b.progs, p)
	}
	b.register(b.progs...)
	if err := b.op(); err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up multiply: %w", err)
	}
	return b, nil
}

func (b *matmulBench) copyBlock(_ *core.NativeCtx, args []value.Value) (value.Value, error) {
	if args[0].Kind() != value.KindMat {
		return value.Nil(), fmt.Errorf("copy_block of %v", args[0].Kind())
	}
	return args[0].Clone(), nil
}

// blockMultiply is C += A·B on s x s blocks.
func (b *matmulBench) blockMultiply(_ *core.NativeCtx, args []value.Value) (value.Value, error) {
	ma, mb, mc := args[0].AsMat(), args[1].AsMat(), args[2].AsMat()
	if ma == nil || mb == nil || mc == nil {
		return value.Nil(), fmt.Errorf("block_multiply needs three matrices")
	}
	var t0 time.Time
	if b.traced {
		t0 = time.Now()
	}
	s := mc.Rows
	for i := 0; i < s; i++ {
		ci := mc.Data[i*s : (i+1)*s]
		for k := 0; k < s; k++ {
			aik := ma.Data[i*s+k]
			bk := mb.Data[k*s : (k+1)*s]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
	if b.traced {
		b.nativeNs.Add(int64(time.Since(t0)))
	}
	return value.Matrix(mc), nil
}

// onDaemons runs fn(i, j, node) on every grid node's daemon executor and
// waits for all of them.
func (b *matmulBench) onDaemons(fn func(i, j int, vars map[string]value.Value)) {
	var wg sync.WaitGroup
	for i := 0; i < matM; i++ {
		for j := 0; j < matM; j++ {
			i, j := i, j
			wg.Add(1)
			b.sys.Do(i*matM+j, func(d *core.Daemon) {
				defer wg.Done()
				fn(i, j, d.Store().FindByName(nodeName(i, j))[0].Vars)
			})
		}
	}
	wg.Wait()
}

// op places the input blocks, runs one multiply and checks C.
func (b *matmulBench) op() error {
	b.onDaemons(func(i, j int, vars map[string]value.Value) {
		vars["resid_A"] = value.Matrix(blockOf(b.a, matN, i, j, matS))
		vars["resid_B"] = value.Matrix(blockOf(b.b, matN, i, j, matS))
		vars["C"] = value.Matrix(value.NewMat(matS, matS))
		delete(vars, "curr_A")
	})
	// Op k's wakes lie in [t0, t0+m) and the next op's t0 is a whole step
	// later. Every t0 lies above the GVT, the first one too, so the
	// diagonal distribute_A always waits for a GVT round.
	b.ops++
	t0 := float64(b.ops * (matM + 1))
	// distribute_A goes in first, and every daemon takes its injection
	// before any rotate_B exists. An injected Messenger is invisible to GVT
	// until its daemon takes it off the local lane (see CHANGES.md): with
	// all eight in flight, a rotate_B waiting at t0+0.5 could let GVT pass
	// the diagonal distribute_A's wake at t0, and a distribute_A waiting
	// at t0+1 could let it pass an invisible rotate_B's. In this order the
	// first commit is t0, and the rotate_Bs have a GVT interval to appear.
	for _, p := range b.progs {
		for i := 0; i < matM; i++ {
			for j := 0; j < matM; j++ {
				vars := map[string]value.Value{
					"i": value.Int(int64(i)), "j": value.Int(int64(j)),
					"m": value.Int(matM), "t0": value.Num(t0),
				}
				if err := b.sys.InjectAt(i*matM+j, p.Name, nodeName(i, j), vars); err != nil {
					return err
				}
			}
		}
		b.settle()
	}
	b.sys.Wait()
	if errs := b.sys.Errors(); len(errs) > b.errsSeen {
		b.errsSeen = len(errs)
		return fmt.Errorf("runtime error: %v", errs[len(errs)-1])
	}
	got := make([]float64, matN*matN)
	var missing atomic.Int32
	b.onDaemons(func(i, j int, vars map[string]value.Value) {
		c := vars["C"].AsMat()
		if c == nil || c.Rows != matS || c.Cols != matS {
			missing.Add(1)
			return
		}
		for r := 0; r < matS; r++ {
			copy(got[(i*matS+r)*matN+j*matS:], c.Data[r*matS:(r+1)*matS])
		}
	})
	if missing.Load() > 0 {
		return fmt.Errorf("%d nodes have no %dx%d C block", missing.Load(), matS, matS)
	}
	return checkMatrix(got, b.want)
}

func (b *matmulBench) measure(d time.Duration) *outcome {
	b.nativeNs.Store(0)
	b.startLedger()
	return closedLoop(d, b.op)
}

func (b *matmulBench) layers(o *outcome) {
	b.fillLedger(o)
	o.layers["native.compute_ms_per_op"] = float64(b.nativeNs.Load()) / 1e6 / float64(o.attempted)
	o.layers["compile.program_us"] = compileUs(matDistribute, matRotate)

	natives := func() func(string, []value.Value) value.Value {
		return func(name string, args []value.Value) value.Value {
			var v value.Value
			if name == "copy_block" {
				v, _ = b.copyBlock(nil, args)
			} else {
				v, _ = b.blockMultiply(nil, args)
			}
			return v
		}
	}
	node := map[string]value.Value{
		"resid_A": value.Matrix(blockOf(b.a, matN, 0, 0, matS)),
		"resid_B": value.Matrix(blockOf(b.b, matN, 0, 0, matS)),
		"curr_A":  value.Matrix(blockOf(b.a, matN, 0, 0, matS)),
		"C":       value.Matrix(value.NewMat(matS, matS)),
	}
	vars := map[string]value.Value{"i": value.Int(0), "j": value.Int(0), "m": value.Int(matM), "t0": value.Num(0)}
	var specs []replaySpec
	for _, p := range b.progs {
		specs = append(specs, replaySpec{prog: p, vars: vars, node: node, natives: natives})
	}
	replayLayers(o, specs)
}
