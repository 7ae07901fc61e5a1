package main

// Reference models written apart from the simulator: they import nothing
// from sharellc/internal and share no code with it, so a fault in the
// simulator's caches, tracker or next-use annotation cannot hide by
// appearing on both sides of a check. They favour obviousness over speed:
// linear tag scans, timestamps for recency, maps for block indices.

import "math"

// refAccess is one LLC reference as the reference models see it.
type refAccess struct {
	Block uint64
	Core  uint8
	Write bool
}

// lruSets is a set-associative cache with true LRU replacement. The set of
// a block is block & (sets-1); an empty way is filled before any valid
// line is evicted.
type lruSets struct {
	sets, ways int
	tags       []uint64
	stamp      []uint64 // last-touch time; 0 marks an empty way
	clock      uint64
}

func newLRUSets(sizeBytes, ways int) *lruSets {
	sets := sizeBytes / 64 / ways
	if sets < 1 || sets&(sets-1) != 0 {
		panic("reference cache: set count must be a power of two")
	}
	return &lruSets{sets: sets, ways: ways, tags: make([]uint64, sets*ways), stamp: make([]uint64, sets*ways)}
}

// access touches block and returns the line index it occupies, whether it
// hit, and for a miss whether a valid line was evicted to make room.
func (c *lruSets) access(block uint64) (line int, hit, evicted bool) {
	c.clock++
	base := int(block&uint64(c.sets-1)) * c.ways
	victim := base
	for w := base; w < base+c.ways; w++ {
		if c.stamp[w] != 0 && c.tags[w] == block {
			c.stamp[w] = c.clock
			return w, true, false
		}
		if c.stamp[w] < c.stamp[victim] {
			victim = w
		}
	}
	evicted = c.stamp[victim] != 0
	c.tags[victim] = block
	c.stamp[victim] = c.clock
	return victim, false, evicted
}

// refLLCResult holds the counters of one reference LLC replay. Hits are
// attributed to the residency they land in and classified when that
// residency closes (evicted, or still resident at the end of the stream):
// a residency is shared when at least two distinct cores touched it
// between its fill and its eviction, the fill included.
type refLLCResult struct {
	Accesses, Hits, Misses uint64

	Residencies, SharedResidencies uint64
	SharedHits, ROSharedHits       uint64
	RWSharedHits                   uint64
	DistinctBlocks, SharedBlocks   uint64

	// DegreeResidencies[d] and DegreeHits[d] count residencies touched by
	// exactly d cores, and the hits they received.
	DegreeResidencies [257]uint64
	DegreeHits        [257]uint64
}

type refResidency struct {
	block   uint64
	cores   [4]uint64
	written bool
	hits    uint64
}

func (r *refResidency) degree() int {
	d := 0
	for _, w := range r.cores {
		for ; w != 0; w &= w - 1 {
			d++
		}
	}
	return d
}

// refLRU replays stream through an empty set-associative LRU LLC of the
// given size and associativity and classifies every residency.
func refLRU(stream []refAccess, sizeBytes, ways int) refLLCResult {
	c := newLRUSets(sizeBytes, ways)
	lines := make([]refResidency, len(c.tags))
	seen := map[uint64]bool{} // block -> ever in a shared residency
	var res refLLCResult
	retire := func(r *refResidency) {
		d := r.degree()
		res.Residencies++
		res.DegreeResidencies[d]++
		res.DegreeHits[d] += r.hits
		if d >= 2 {
			res.SharedResidencies++
			res.SharedHits += r.hits
			if r.written {
				res.RWSharedHits += r.hits
			} else {
				res.ROSharedHits += r.hits
			}
			seen[r.block] = true
		}
	}
	for _, a := range stream {
		res.Accesses++
		if _, ok := seen[a.Block]; !ok {
			seen[a.Block] = false
		}
		line, hit, evicted := c.access(a.Block)
		r := &lines[line]
		if hit {
			res.Hits++
			r.hits++
		} else {
			res.Misses++
			if evicted {
				retire(r)
			}
			*r = refResidency{block: a.Block}
		}
		r.cores[a.Core>>6] |= 1 << (a.Core & 63)
		r.written = r.written || a.Write
	}
	for i := range lines {
		if c.stamp[i] != 0 {
			retire(&lines[i])
		}
	}
	res.DistinctBlocks = uint64(len(seen))
	for _, shared := range seen {
		if shared {
			res.SharedBlocks++
		}
	}
	return res
}

// neverAgain marks an access whose block is not referenced again.
const neverAgain = math.MaxInt64

// refNextUse returns, for every position of stream, the position of the
// next access to the same block, or neverAgain.
func refNextUse(stream []refAccess) []int64 {
	next := make([]int64, len(stream))
	last := make(map[uint64]int64)
	for i := len(stream) - 1; i >= 0; i-- {
		b := stream[i].Block
		if j, ok := last[b]; ok {
			next[i] = j
		} else {
			next[i] = neverAgain
		}
		last[b] = int64(i)
	}
	return next
}

// refMIN counts the misses of Belady's MIN over stream in an empty
// set-associative LLC: every miss fills, and the victim is the resident
// block whose next reference lies farthest ahead (never-again blocks
// first). next is refNextUse(stream).
func refMIN(stream []refAccess, next []int64, sizeBytes, ways int) uint64 {
	sets := sizeBytes / 64 / ways
	tags := make([]uint64, sets*ways)
	due := make([]int64, sets*ways)
	valid := make([]bool, sets*ways)
	var misses uint64
	for i, a := range stream {
		base := int(a.Block&uint64(sets-1)) * ways
		hit := -1
		victim := -1
		for w := base; w < base+ways; w++ {
			if !valid[w] {
				if victim < 0 || valid[victim] {
					victim = w
				}
				continue
			}
			if tags[w] == a.Block {
				hit = w
				break
			}
			if victim < 0 || (valid[victim] && due[w] > due[victim]) {
				victim = w
			}
		}
		if hit >= 0 {
			due[hit] = next[i]
			continue
		}
		misses++
		tags[victim], due[victim], valid[victim] = a.Block, next[i], true
	}
	return misses
}

// refGeometry is the private-cache geometry of the reference filter.
type refGeometry struct {
	Cores          int
	L1Size, L1Ways int
	L2Size, L2Ways int
}

// refRaw is one raw memory reference before the private caches.
type refRaw struct {
	Block uint64
	Core  uint8
	PC    uint64
	Write bool
}

// refFilter is a per-core, non-inclusive L1/L2 LRU hierarchy: a reference
// probes its core's L1, on a miss its L2, and reaches the LLC when both
// miss. Each level fills on its own miss.
type refFilter struct {
	l1, l2         []*lruSets
	Refs           uint64
	L1Hits, L2Hits uint64
}

func newRefFilter(g refGeometry) *refFilter {
	f := &refFilter{}
	for c := 0; c < g.Cores; c++ {
		f.l1 = append(f.l1, newLRUSets(g.L1Size, g.L1Ways))
		f.l2 = append(f.l2, newLRUSets(g.L2Size, g.L2Ways))
	}
	return f
}

// access filters one raw reference and reports whether it reaches the LLC.
func (f *refFilter) access(r refRaw) bool {
	f.Refs++
	if _, hit, _ := f.l1[r.Core].access(r.Block); hit {
		f.L1Hits++
		return false
	}
	if _, hit, _ := f.l2[r.Core].access(r.Block); hit {
		f.L2Hits++
		return false
	}
	return true
}
