package sched

import (
	"context"
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"testing"

	"demandrace/internal/cache"
	"demandrace/internal/program"
	"demandrace/internal/vclock"
	"demandrace/internal/workloads"
)

// hashExec folds the scheduler's delivery stream into an FNV-64a digest:
// every Exec as (tid, ctx, op) and every BarrierRelease as (id, parties).
type hashExec struct {
	h     hash.Hash64
	buf   []byte
	execs int
	// stopAt, when positive, cancels stop once that many Execs arrived.
	stopAt int
	stop   context.CancelFunc
}

func newHashExec() *hashExec { return &hashExec{h: fnv.New64a()} }

func (x *hashExec) Exec(t vclock.TID, ctx cache.Context, op program.Op) {
	b := x.buf[:0]
	b = append(b, 'x')
	b = binary.LittleEndian.AppendUint32(b, uint32(t))
	b = binary.LittleEndian.AppendUint32(b, uint32(ctx))
	b = append(b, byte(op.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(op.Sync))
	b = binary.LittleEndian.AppendUint64(b, uint64(op.Addr))
	b = binary.LittleEndian.AppendUint64(b, op.N)
	x.h.Write(b)
	x.buf = b
	if x.execs++; x.execs == x.stopAt {
		x.stop()
	}
}

func (x *hashExec) BarrierRelease(id program.SyncID, parties []vclock.TID) {
	b := x.buf[:0]
	b = append(b, 'b')
	b = binary.LittleEndian.AppendUint32(b, uint32(id))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(parties)))
	for _, p := range parties {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	x.h.Write(b)
	x.buf = b
}

// sum finishes the digest with the scheduler's step count.
func (x *hashExec) sum(steps uint64) uint64 {
	x.h.Write(binary.LittleEndian.AppendUint64(nil, steps))
	return x.h.Sum64()
}

// goldenConfigs are the scheduler configurations TestGoldenStreams pins,
// in column order. The suite's stored output hashes cover only the first.
func goldenConfigs() []Config {
	rr1 := DefaultConfig(4)
	rr3 := rr1
	rr3.Quantum = 3
	rnd1 := rr1
	rnd1.Policy, rnd1.Seed = RandomInterleave, 1
	rnd2 := rnd1
	rnd2.Seed = 2
	placed := rr1
	placed.CtxOf = func(t vclock.TID) cache.Context { return cache.Context((3*int(t) + 1) % 4) }
	return []Config{rr1, rr3, rnd1, rnd2, placed}
}

// goldenStreams holds, per kernel, the stream digest under each of
// goldenConfigs: round robin with quantum 1 and 3, random interleaving with
// seeds 1 and 2, and round robin under a custom placement.
var goldenStreams = map[string][5]uint64{
	"app_dclp":                {0x325fdfc3f9eb947c, 0xc0a73ed1393189a0, 0xb13eaaf2d368876c, 0x8096400116232f14, 0x96deed9ee72a2e4},
	"app_ringbuffer":          {0xc479c8406929cc28, 0x23e88f8756dd8120, 0x8b0b2925377a17bc, 0xfcf9eb22a6c47a14, 0x7dae450bf1d784b8},
	"app_webserver":           {0xa02d6cd32f773782, 0x55aed8552352191a, 0xed3feb104980336e, 0x6c619c0566ee117a, 0x19262ec138175d92},
	"app_workstealing":        {0x9b3d650b383c00d9, 0x9caad2f9ff25f2bd, 0xe99a415c23dc9d1d, 0x78edf8c38e469191, 0xdffc36f908a00d31},
	"micro_eviction":          {0xce5d59e9fdf512c8, 0xce5d59e9fdf512c8, 0xce5d59e9fdf512c8, 0xce5d59e9fdf512c8, 0x17ee5be0d896d6fb},
	"micro_false_sharing":     {0xd4037cf737460b8a, 0x1ebd220932639be, 0xa26fa79631cccf0e, 0x217e356205e78242, 0x6a9b298e6ef1f8ba},
	"micro_private":           {0xdac8557e2006c609, 0x3d6c1de3e25b6809, 0xb7fed91ba38b58ed, 0xba41f672c91ccd49, 0x13343455ff7afe89},
	"micro_producer_consumer": {0x1b19082605b5e156, 0x1b19082605b5e156, 0x1b19082605b5e156, 0x1b19082605b5e156, 0x5bc4722b3bae791},
	"micro_read_sharing":      {0xb3e33487a2c7b252, 0x62c5cf62811c8e3a, 0xd9db870caed80b22, 0x4b31980ff5717b7a, 0x67b439000b43e085},
	"micro_streaming":         {0x5d10e559402628b0, 0x5d10e559402628b0, 0x5d10e559402628b0, 0x5d10e559402628b0, 0x5007deab78dde79b},
	"micro_write_write":       {0x671cdbb405fc7b26, 0x671cdbb405fc7b26, 0x671cdbb405fc7b26, 0x671cdbb405fc7b26, 0x74e96df52e892831},
	"blackscholes":            {0x388c7364f86991e4, 0xe27beabb05a175e4, 0x99aa573e7de284b4, 0xe45694812a4f99cc, 0xda9ee58dc7735a4},
	"bodytrack":               {0x1310ce3305e55b75, 0xd46698159c7f15b5, 0x41cc7d95509a4a75, 0x8d17dca7f333030d, 0xe6a32e93a94277b5},
	"canneal":                 {0x2f668ff70c00cd29, 0xef194d84ad0046e5, 0x32f2b1452f7740d5, 0xa457e60df9bd4485, 0x3d3750fc276c0395},
	"dedup":                   {0x1b5fba910d884ce, 0xfe869f2dde6c6e6, 0xc60f5871d792947e, 0xd4aa99307261bf4a, 0xf3aff5068b8aa0d2},
	"facesim":                 {0x54a3ef5ebfcdd9f5, 0x3d96ab2a6916c235, 0xcd9d210c7cd7e061, 0x690281c82b169cf1, 0xcb030d4baebbef5},
	"ferret":                  {0xe7f64d163d506356, 0x35bf912f285e7d9a, 0x66525ea90e89fa9e, 0xdc394a118fc16c56, 0xf4ea11a2a737a9b6},
	"fluidanimate":            {0x527ada7d7391cc95, 0x78293bbb665dcded, 0xfdd6a3949467f519, 0xc30a036d19506d91, 0xdc8a4b8258949255},
	"freqmine":                {0xf90e4251c84d401e, 0x4f5560b80e3dedaa, 0xf4e2188e5904b872, 0x1a167b9b4c019ce, 0xc787ad9508622d8e},
	"raytrace":                {0x3646be24d34ab4f5, 0x6ede9f0631bb8a85, 0x4e223e05432e0f4d, 0x3ccaf711e51491d, 0xe6356cab8c54faf5},
	"streamcluster":           {0x53d890a70593afb8, 0xa06eb590909be3b8, 0xd46591e9fff9371c, 0xd7d372c1d9d4f600, 0x9fbd7587c16cb7b8},
	"swaptions":               {0xb33fa347682c7d38, 0x124c1aeef61131c8, 0x5bfb216cbf800e9c, 0xc9a456ae33f8c9e0, 0x361f24224a4fc258},
	"vips":                    {0xdd27ebf9f743a93a, 0x19b94ce66a681292, 0xc9ecd4cf78b5414e, 0x30dc5f66c70018ae, 0xb049b10ed26fbb82},
	"x264":                    {0x7335001d68ab16bf, 0x7335001d68ab16bf, 0x7335001d68ab16bf, 0x7335001d68ab16bf, 0xbef5ca3c133ad038},
	"histogram":               {0x614c1d41ded7dc3c, 0xc2e17de7a0f68500, 0x26f26d13a9adee20, 0x9c98fa2bf7642c84, 0x603d10eb7fbc50c4},
	"kmeans":                  {0x12dc140f947374e8, 0xc2b80e18dc240094, 0x8c8cde80ad050030, 0xf71b7d652b42536c, 0xf77622f840ab8268},
	"linear_regression":       {0xca8943c9b46aa4d0, 0x53b994528cea60e0, 0x481e0b5d4986cc04, 0xef1cccd03dd57a48, 0x80b42c31223b7750},
	"matrix_multiply":         {0xb129fab525c85bc3, 0xa6dae71a1fd97623, 0x45b07ab09e24f253, 0x5a1818c2a8dec12b, 0xc8a7eb2e0c2c8fc3},
	"pca":                     {0x80a331c6371fdb38, 0x766b485d889c87cc, 0x4ba4b8cd29fd4754, 0x3a1137122548af20, 0x41891e72c916edb8},
	"reverse_index":           {0x4c5224bf478fe3bc, 0x381e426b66660584, 0xbf5ddc67d3618a60, 0x4f162629b9aa26f4, 0x710993b7eb45c07c},
	"string_match":            {0xeebe3a2693c92133, 0xa52683a695e87cb, 0x9d69dfbe881da94f, 0x260da49dae3cce83, 0xbb827c98396b240b},
	"word_count":              {0x85dcb126d966b980, 0x8c9424d52b5836ec, 0x44b6a4ab8f028b00, 0x2991691c903739a4, 0xb7a70a570b67fc40},
	"racy_counter":            {0x35050522e01011e3, 0xb234e4a731d7f9d3, 0x5081f23e7606eb7b, 0xb59c27804513e84b, 0x7957841d2f4d0593},
	"racy_flag":               {0xd691bf4220a61b6, 0xa0a18f2427ed0e26, 0x621c1a1c90c4f72a, 0x6afa3bef87c4fca2, 0x712d0dc2fd6f597e},
	"racy_lock_inversion":     {0xefbe4f19ea721b21, 0x80c2d07bcf485be5, 0x124f047dceecd989, 0x7a87a3dfab1940d, 0x2860081a11f51035},
	"racy_mostly_clean":       {0x6a933b35c1835627, 0xc573678cd52d3feb, 0x87c0b98f556da453, 0xf117ceb30e5f01e7, 0x76e093c9583a29bf},
	"racy_overlap":            {0x4dc4fd9b37fb2513, 0xfcbf49a470cfd8eb, 0xde97f6f3ff71b63, 0x698b26716936f567, 0x8f5942f49564cfb},
}

// TestGoldenStreams pins the exact op stream the scheduler delivers for
// every registered kernel under five configurations, so a change to the
// slot loop, the blocking ops or placement cannot reorder an interleaving
// unnoticed.
func TestGoldenStreams(t *testing.T) {
	cfgs := goldenConfigs()
	for _, k := range workloads.All() {
		p := k.Build(workloads.DefaultConfig())
		var got [5]uint64
		for i, cfg := range cfgs {
			s, err := New(p, cfg)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			x := newHashExec()
			if err := s.Run(x); err != nil {
				t.Fatalf("%s config %d: %v", k.Name, i, err)
			}
			got[i] = x.sum(s.Steps())
		}
		want, ok := goldenStreams[k.Name]
		if !ok {
			t.Errorf("%s: no golden streams; got %#x", k.Name, got)
			continue
		}
		for i := range cfgs {
			if got[i] != want[i] {
				t.Errorf("%s config %d: stream digest %#x, want %#x", k.Name, i, got[i], want[i])
			}
		}
	}
	if len(goldenStreams) != len(workloads.All()) {
		t.Errorf("%d golden rows for %d kernels", len(goldenStreams), len(workloads.All()))
	}
}

// TestGoldenInterruptedSteps pins where a run cancelled from inside its
// executor stops: cancellation is polled between slots, so the run
// finishes the slot in flight and reports exactly that many steps.
func TestGoldenInterruptedSteps(t *testing.T) {
	k, _ := workloads.ByName("streamcluster")
	p := k.Build(workloads.DefaultConfig())
	cfg := DefaultConfig(4)
	cfg.Quantum = 3
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	x := newHashExec()
	x.stopAt, x.stop = 1000, cancel
	err = s.RunContext(ctx, x)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("RunContext = %v, want *InterruptedError", err)
	}
	if want := uint64(1002); ie.Steps != want {
		t.Errorf("interrupted after %d steps, want %d", ie.Steps, want)
	}
}

// nopExec discards the delivery stream.
type nopExec struct{}

func (nopExec) Exec(vclock.TID, cache.Context, program.Op)  {}
func (nopExec) BarrierRelease(program.SyncID, []vclock.TID) {}

// TestRandomInterleaveAllocs checks that picking among ready threads at
// random allocates nothing per slot: a random run makes no more
// allocations than the same run under round robin.
func TestRandomInterleaveAllocs(t *testing.T) {
	k, _ := workloads.ByName("streamcluster")
	p := k.Build(workloads.DefaultConfig())
	runAllocs := func(cfg Config) float64 {
		const runs = 5
		// One scheduler per run, built outside the measurement;
		// AllocsPerRun adds a warm-up run.
		scheds := make([]*Scheduler, runs+1)
		for i := range scheds {
			s, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scheds[i] = s
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			s := scheds[next]
			next++
			if err := s.Run(nopExec{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	rr := runAllocs(DefaultConfig(4))
	rnd := DefaultConfig(4)
	rnd.Policy, rnd.Seed = RandomInterleave, 1
	if got := runAllocs(rnd); got > rr {
		t.Errorf("random interleaving makes %.0f allocations per run, round robin %.0f", got, rr)
	}
}
