package main

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"messengers/internal/apps"
	"messengers/internal/bytecode"
	"messengers/internal/compile"
	"messengers/internal/core"
	"messengers/internal/value"
)

// mandel-tcp: the paper's Fig. 3 manager/worker Mandelbrot on a star of
// TCP daemons. One op is one full image.
const (
	mandelWorkers   = 2   // worker daemons around the central daemon 0
	mandelPerWorker = 4   // worker nodes (and Messengers) per worker daemon
	mandelSize      = 256 // image is mandelSize x mandelSize pixels
	mandelGrid      = 32  // mandelGrid x mandelGrid blocks: 1024 tasks
	mandelIter      = 64  // escape-time iteration cap
)

// mandelScript is apps.MsgrMandelScript with its first statement,
// create(ALL), replaced by hop(): the star of worker nodes is built once
// with BuildNetwork, so repeated images reuse it instead of creating a new
// node on every worker daemon per image. The rest of Fig. 3 is unchanged.
var mandelScript = strings.Replace(apps.MsgrMandelScript, "create(ALL);", "hop();", 1)

type mandelBench struct {
	*tcpSystem
	prog   *bytecode.Program
	reg    region
	blocks []block
	want   []uint16 // the image computed directly

	// Per-image state, touched only by natives on daemon executors and by
	// the op between images (ordered by Inject and Wait).
	next     int64
	img      []uint16
	deposits []int32
	depErr   error

	nativeNs atomic.Int64
	errsSeen int
	traced   bool
}

func buildMandel(_ int64, traced bool) (workload, error) {
	b := &mandelBench{traced: traced, reg: paperRegion}
	b.blocks = blocks(mandelSize, mandelSize, mandelGrid)
	b.want = escapeImage(b.reg, mandelSize, mandelSize, mandelIter)
	b.img = make([]uint16, mandelSize*mandelSize)
	b.deposits = make([]int32, len(b.blocks))

	n := 1 + mandelWorkers
	var err error
	if b.tcpSystem, err = newTCPSystem(n, core.Star(n), traced); err != nil {
		return nil, err
	}

	spec := core.NetSpec{Nodes: []core.NetNode{{Name: "center", Daemon: 0}}}
	for d := 1; d < n; d++ {
		for k := 0; k < mandelPerWorker; k++ {
			w := fmt.Sprintf("w%d_%d", d, k)
			spec.Nodes = append(spec.Nodes, core.NetNode{Name: w, Daemon: d})
			spec.Links = append(spec.Links, core.NetLink{A: "center", B: w})
		}
	}
	if err := b.sys.BuildNetwork(spec); err != nil {
		b.close()
		return nil, err
	}
	b.sys.RegisterNative("next_task", b.nextTask)
	b.sys.RegisterNative("compute", b.compute)
	b.sys.RegisterNative("deposit", b.deposit)
	if b.prog, err = compile.Compile("mandel_worker", mandelScript); err != nil {
		b.close()
		return nil, err
	}
	b.register(b.prog)
	if err := b.op(); err != nil { // warm-up: dials every connection
		b.close()
		return nil, fmt.Errorf("warm-up image: %w", err)
	}
	return b, nil
}

func (b *mandelBench) nextTask(_ *core.NativeCtx, _ []value.Value) (value.Value, error) {
	if b.next >= int64(len(b.blocks)) {
		return value.Nil(), nil
	}
	b.next++
	return value.Int(b.next - 1), nil
}

func (b *mandelBench) compute(_ *core.NativeCtx, args []value.Value) (value.Value, error) {
	t := args[0].AsInt()
	if t < 0 || t >= int64(len(b.blocks)) {
		return value.Nil(), fmt.Errorf("compute: no task %d", t)
	}
	var t0 time.Time
	if b.traced {
		t0 = time.Now()
	}
	pix := escapeBlock(b.reg, mandelSize, mandelSize, b.blocks[t], mandelIter)
	if b.traced {
		b.nativeNs.Add(int64(time.Since(t0)))
	}
	return value.Bytes(pix), nil
}

func (b *mandelBench) deposit(_ *core.NativeCtx, args []value.Value) (value.Value, error) {
	t := args[0].AsInt()
	if t < 0 || t >= int64(len(b.blocks)) {
		return value.Nil(), fmt.Errorf("deposit: no task %d", t)
	}
	blk, data := b.blocks[t], args[1].AsBytes()
	if len(data) != 2*blk.w*blk.h {
		b.depErr = fmt.Errorf("block %d: %d bytes, want %d", t, len(data), 2*blk.w*blk.h)
		return value.Nil(), nil
	}
	i := 0
	for y := blk.y0; y < blk.y0+blk.h; y++ {
		for x := blk.x0; x < blk.x0+blk.w; x++ {
			b.img[y*mandelSize+x] = binary.LittleEndian.Uint16(data[i:])
			i += 2
		}
	}
	b.deposits[t]++
	return value.Nil(), nil
}

// op computes one image and checks it.
func (b *mandelBench) op() error {
	b.next = 0
	b.depErr = nil
	clear(b.img)
	clear(b.deposits)
	if err := b.sys.InjectAt(0, "mandel_worker", "center", nil); err != nil {
		return err
	}
	b.sys.Wait()
	if errs := b.sys.Errors(); len(errs) > b.errsSeen {
		b.errsSeen = len(errs)
		return fmt.Errorf("runtime error: %v", errs[len(errs)-1])
	}
	if b.depErr != nil {
		return b.depErr
	}
	return checkImage(b.img, b.want, b.deposits)
}

func (b *mandelBench) measure(d time.Duration) *outcome {
	b.nativeNs.Store(0)
	b.startLedger()
	return closedLoop(d, b.op)
}

func (b *mandelBench) layers(o *outcome) {
	b.fillLedger(o)
	o.layers["native.compute_ms_per_op"] = float64(b.nativeNs.Load()) / 1e6 / float64(o.attempted)
	o.layers["compile.program_us"] = compileUs(mandelScript)

	replayLayers(o, []replaySpec{{
		prog: b.prog,
		natives: func() func(string, []value.Value) value.Value {
			tasks := int64(0)
			return func(name string, args []value.Value) value.Value {
				switch name {
				case "next_task":
					if tasks >= int64(len(b.blocks)) {
						return value.Nil()
					}
					tasks++
					return value.Int(tasks - 1)
				case "compute":
					return value.Bytes(escapeBlock(b.reg, mandelSize, mandelSize, b.blocks[args[0].AsInt()], mandelIter))
				}
				return value.Nil()
			}
		},
	}})
}
