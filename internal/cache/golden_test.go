package cache

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// goldenCase is one configuration of TestGoldenRandomStream: a seeded
// stream of loads and stores and the counters and event-stream hash it must
// reproduce exactly.
type goldenCase struct {
	name string
	cfg  Config
	// lines is the cold address range, in lines; hot is a small set of
	// lines every context keeps touching, so the stream mixes sharing
	// (HITM, invalidations) with capacity misses.
	lines, hot int
	seed       int64
	stats      Stats
	perCore    []CoreStats
	events     uint64 // FNV-64a over every emitted event, in order
}

// TestGoldenRandomStream pins the hierarchy's observable behaviour (victim
// choice, event order, every counter) on long random streams. The suite's
// kernels never evict from the default LLC, so this is the test that holds
// LLC replacement, back-invalidation and the MOESI, prefetch and SMT paths
// to their exact historical output.
func TestGoldenRandomStream(t *testing.T) {
	def := DefaultConfig()
	pf := Config{Cores: 4, SMT: 1, L1Sets: 16, L1Ways: 4, L2Sets: 64, L2Ways: 4, NextLinePrefetch: true}
	cases := []goldenCase{
		{
			name: "default", cfg: def, lines: 48 << 10, hot: 64, seed: 1,
			stats:   Stats{Accesses: 100000, Loads: 50078, Stores: 49922, L1Hits: 20501, L1Misses: 79499, HITM: 22010, HITMLoad: 11001, HITMStore: 11009, PeerClean: 9265, LLCHits: 16513, MemoryFills: 31711, Invalidations: 30546, Writebacks: 23207, Evictions: 46986, L2Evictions: 1551, L2Writebacks: 839},
			perCore: []CoreStats{{Hits: 5029, Misses: 19829, HITMIn: 5458, HITMOut: 5399}, {Hits: 5181, Misses: 20027, HITMIn: 5500, HITMOut: 5566}, {Hits: 5162, Misses: 19734, HITMIn: 5573, HITMOut: 5579}, {Hits: 5129, Misses: 19909, HITMIn: 5479, HITMOut: 5466}},
			events:  0x3ba5eb8eb4756f9c,
		},
		{
			name: "llc-evicting", cfg: Config{Cores: 4, SMT: 1, L1Sets: 4, L1Ways: 2, L2Sets: 16, L2Ways: 2}, lines: 256, hot: 8, seed: 2,
			stats:   Stats{Accesses: 100000, Loads: 49943, Stores: 50057, L1Hits: 13902, L1Misses: 86098, HITM: 17202, HITMLoad: 8555, HITMStore: 8647, PeerClean: 11690, LLCHits: 5618, MemoryFills: 51588, Invalidations: 50729, Writebacks: 16142, Evictions: 35350, L2Evictions: 51556, L2Writebacks: 30220},
			perCore: []CoreStats{{Hits: 3512, Misses: 21400, HITMIn: 4280, HITMOut: 4444}, {Hits: 3505, Misses: 21639, HITMIn: 4259, HITMOut: 4249}, {Hits: 3351, Misses: 21605, HITMIn: 4339, HITMOut: 4208}, {Hits: 3534, Misses: 21454, HITMIn: 4324, HITMOut: 4301}},
			events:  0x6f44b31e0061f20b,
		},
		{
			name: "moesi", cfg: Config{Cores: 4, SMT: 1, L1Sets: 8, L1Ways: 2, L2Sets: 32, L2Ways: 4, Protocol: MOESI}, lines: 512, hot: 16, seed: 3,
			stats:   Stats{Accesses: 100000, Loads: 50222, Stores: 49778, L1Hits: 15392, L1Misses: 84608, HITM: 23688, HITMLoad: 11904, HITMStore: 11784, PeerClean: 7524, LLCHits: 12835, MemoryFills: 40561, Invalidations: 29199, Writebacks: 28678, Evictions: 55361, L2Evictions: 40433, L2Writebacks: 23889},
			perCore: []CoreStats{{Hits: 3892, Misses: 21292, HITMIn: 5857, HITMOut: 5971}, {Hits: 3808, Misses: 21304, HITMIn: 5939, HITMOut: 5853}, {Hits: 3825, Misses: 20961, HITMIn: 5850, HITMOut: 5905}, {Hits: 3867, Misses: 21051, HITMIn: 6042, HITMOut: 5959}},
			events:  0x190253da0367837b,
		},
		{
			name: "prefetch", cfg: pf, lines: 1024, hot: 16, seed: 4,
			stats:   Stats{Accesses: 100000, Loads: 49994, Stores: 50006, L1Hits: 24913, L1Misses: 75087, HITM: 15637, HITMLoad: 7713, HITMStore: 7924, PeerClean: 15519, LLCHits: 3531, MemoryFills: 40400, Invalidations: 83723, Prefetches: 62623, PrefetchedHITM: 8724, Writebacks: 12310, Evictions: 53782, L2Evictions: 78498, L2Writebacks: 27207},
			perCore: []CoreStats{{Hits: 6257, Misses: 18973, HITMIn: 4034, HITMOut: 3843}, {Hits: 6270, Misses: 18564, HITMIn: 3908, HITMOut: 3944}, {Hits: 6356, Misses: 18809, HITMIn: 3828, HITMOut: 3940}, {Hits: 6030, Misses: 18741, HITMIn: 3867, HITMOut: 3910}},
			events:  0x8bf809c839f21a62,
		},
		{
			name: "smt2", cfg: Config{Cores: 2, SMT: 2, L1Sets: 8, L1Ways: 4, L2Sets: 64, L2Ways: 2}, lines: 512, hot: 16, seed: 5,
			stats:   Stats{Accesses: 100000, Loads: 49841, Stores: 50159, L1Hits: 30286, L1Misses: 69714, HITM: 15339, HITMLoad: 7686, HITMStore: 7653, PeerClean: 3926, LLCHits: 9309, MemoryFills: 41140, Invalidations: 27791, Writebacks: 20485, Evictions: 41862, L2Evictions: 41012, L2Writebacks: 24770},
			perCore: []CoreStats{{Hits: 15019, Misses: 34833, HITMIn: 7707, HITMOut: 7632}, {Hits: 15267, Misses: 34881, HITMIn: 7632, HITMOut: 7707}},
			events:  0xea5a45c8c13983f,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats, perCore, events := runGolden(tc, 100_000)
			if stats != tc.stats {
				t.Errorf("Stats = %#v\nwant   %#v", stats, tc.stats)
			}
			if !slices.Equal(perCore, tc.perCore) {
				t.Errorf("PerCoreStats = %#v\nwant          %#v", perCore, tc.perCore)
			}
			if events != tc.events {
				t.Errorf("event hash = %#x, want %#x", events, tc.events)
			}
		})
	}
}

// runGolden drives n seeded accesses through a fresh hierarchy: half to
// the hot lines, half across the whole range, word-aligned, one in two a
// store.
func runGolden(tc goldenCase, n int) (Stats, []CoreStats, uint64) {
	h := New(tc.cfg)
	sum := fnv.New64a()
	var buf []byte
	h.SetEventSink(func(ev Event) {
		buf = append(buf[:0], byte(ev.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Ctx))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(ev.Src)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Line))
		if ev.Write {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		sum.Write(buf)
	})
	r := rand.New(rand.NewSource(tc.seed))
	for i := 0; i < n; i++ {
		ctx := Context(r.Intn(tc.cfg.Contexts()))
		line := uint64(r.Intn(tc.hot))
		if r.Intn(2) == 0 {
			line = uint64(r.Intn(tc.lines))
		}
		h.Access(ctx, addr(line, uint64(r.Intn(8)*8)), r.Intn(2) == 0)
	}
	return h.Stats(), h.PerCoreStats(), sum.Sum64()
}
