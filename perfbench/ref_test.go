package main

import "testing"

// The expected values below are worked out by hand; the comments walk
// each trace step by step.

func TestRefLRUClassifier(t *testing.T) {
	// 256-byte, 2-way LLC: 2 sets, even blocks in set 0, odd in set 1.
	stream := []refAccess{
		{0, 0, false}, // miss, fill A{0: core 0}
		{2, 1, false}, // miss, fill B{2: core 1}
		{0, 1, true},  // hit A: cores {0,1}, written
		{4, 0, false}, // miss, LRU of set 0 is block 2: close B (private, 0 hits), fill C{4}
		{0, 0, false}, // hit A (2 hits)
		{2, 2, false}, // miss, LRU is block 4: close C (private, 0 hits), fill D{2: core 2}
		{1, 3, false}, // miss, fill E{1: core 3} in set 1
		{1, 3, false}, // hit E
		{2, 0, false}, // hit D: cores {2,0}
	}
	// At the end A (shared, written, 2 hits), D (shared, read-only, 1 hit)
	// and E (private, 1 hit) are still resident and close.
	got := refLRU(stream, 256, 2)
	want := refLLCResult{
		Accesses: 9, Hits: 4, Misses: 5,
		Residencies: 5, SharedResidencies: 2,
		SharedHits: 3, RWSharedHits: 2, ROSharedHits: 1,
		DistinctBlocks: 4, SharedBlocks: 2,
	}
	want.DegreeResidencies[1], want.DegreeResidencies[2] = 3, 2
	want.DegreeHits[1], want.DegreeHits[2] = 1, 3
	if got != want {
		t.Fatalf("refLRU:\n got %+v\nwant %+v", got, want)
	}
}

func TestRefLRUAndMIN(t *testing.T) {
	// One set of two ways; blocks 1 2 3 1 2 4 1 2.
	var stream []refAccess
	for _, b := range []uint64{1, 2, 3, 1, 2, 4, 1, 2} {
		stream = append(stream, refAccess{Block: b})
	}
	next := refNextUse(stream)
	wantNext := []int64{3, 4, neverAgain, 6, 7, neverAgain, neverAgain, neverAgain}
	for i := range wantNext {
		if next[i] != wantNext[i] {
			t.Fatalf("next use at %d: got %d, want %d", i, next[i], wantNext[i])
		}
	}
	// LRU keeps the two most recent blocks, and every access here touches
	// the third: all 8 miss.
	if got := refLRU(stream, 128, 2).Misses; got != 8 {
		t.Fatalf("LRU misses: got %d, want 8", got)
	}
	// MIN: 1 m, 2 m, 3 m evicts 2 (next 4 > 3), 1 hit, 2 m evicts 3
	// (never again), 4 m evicts 2 (next 7 > 6), 1 hit, 2 m: 6 misses.
	if got := refMIN(stream, next, 128, 2); got != 6 {
		t.Fatalf("MIN misses: got %d, want 6", got)
	}
}

func TestRefFilter(t *testing.T) {
	// Per core: a 1-line L1 and one 2-way L2 set.
	f := newRefFilter(refGeometry{Cores: 2, L1Size: 64, L1Ways: 1, L2Size: 128, L2Ways: 2})
	raw := []refRaw{
		{Block: 1, Core: 0}, // L1 miss, L2 miss -> LLC
		{Block: 1, Core: 0}, // L1 hit
		{Block: 2, Core: 0}, // L1 miss (evicts 1), L2 miss -> LLC; L2 {1,2}
		{Block: 1, Core: 0}, // L1 miss, L2 hit
		{Block: 1, Core: 1}, // core 1: both miss -> LLC
		{Block: 3, Core: 0}, // L1 miss, L2 miss evicts 2 -> LLC; L2 {1,3}
		{Block: 2, Core: 0}, // L1 miss, L2 miss evicts 1 -> LLC
		{Block: 3, Core: 0}, // L1 miss (holds 2), L2 hit
	}
	var llc []uint64
	for _, r := range raw {
		if f.access(r) {
			llc = append(llc, r.Block<<8|uint64(r.Core))
		}
	}
	want := []uint64{1 << 8, 2 << 8, 1<<8 | 1, 3 << 8, 2 << 8}
	if len(llc) != len(want) {
		t.Fatalf("LLC refs: got %d, want %d", len(llc), len(want))
	}
	for i := range want {
		if llc[i] != want[i] {
			t.Fatalf("LLC ref %d: got block %d core %d", i, llc[i]>>8, llc[i]&0xff)
		}
	}
	if f.Refs != 8 || f.L1Hits != 1 || f.L2Hits != 2 {
		t.Fatalf("filter counters: refs %d, L1 hits %d, L2 hits %d; want 8, 1, 2", f.Refs, f.L1Hits, f.L2Hits)
	}
}

func TestSelfTime(t *testing.T) {
	// Parent [0,10) with children [1,4) and [3,6) overlapping, and [8,12)
	// running past the parent's end: covered = [1,6) + [8,10) = 7.
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 4},
		{ID: 3, Parent: 1, Start: 3, End: 6},
		{ID: 4, Parent: 1, Start: 8, End: 12},
	}
	self := selfTimes(spans)
	if self[1] != 3 || self[2] != 3 || self[3] != 3 || self[4] != 4 {
		t.Fatalf("self times: %v", self)
	}
}

func TestQuartiles(t *testing.T) {
	// Python's statistics.quantiles([1..10], n=4) gives 2.75, 5.5, 8.25.
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles: %v %v %v", q1, med, q3)
	}
}
