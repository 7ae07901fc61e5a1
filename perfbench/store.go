package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
	"sharellc/internal/workloads"
)

// setups is how many times a run builds its snapshot store from nothing;
// setup_s is the median of those builds.
const setups = 3

// provider wraps sc.Stream as the sim.Config.Streams hook. Every call is
// one "stream" operation; a traced run also records a span per stream,
// labelled build, disk (snapshot load) or mem (process-level hit). The
// label comes from the cache itself: a key the cache did not hold is a
// build, otherwise the change in its Stats tells a disk load from a
// memory hit.
func (b *bench) provider(sc *streamcache.Cache, parent int64) sim.StreamProvider {
	return func(ctx context.Context, m workloads.Model, machine cache.Config, seed uint64) (*sim.Stream, error) {
		if b.tr == nil {
			s, err := sc.Stream(ctx, m, machine, seed)
			return s, b.op("stream", err)
		}
		known := sc.Contains(streamcache.Key(m, machine, seed))
		before := sc.Stats()
		start := time.Now()
		s, err := sc.Stream(ctx, m, machine, seed)
		end := time.Now()
		after := sc.Stats()
		label := "mem"
		switch {
		case !known:
			label = "build"
		case after.DiskHits > before.DiskHits && after.Hits == before.Hits:
			label = "disk"
		}
		b.tr.add(parent, "stream", m.Name+" "+label, start, end)
		return s, b.op("stream", err)
	}
}

// streamInfo is what the run keeps of one prepared stream after set-up.
type streamInfo struct {
	name        string
	model       workloads.Model // scaled
	llc, l1, l2 uint64
}

// storeInfo describes the snapshot store set-up leaves behind.
type storeInfo struct {
	dir     string
	streams []streamInfo
	bytes   uint64 // snapshot bytes on disk
}

// buildStore runs set-up `setups` times, each in a fresh directory with a
// fresh stream cache: generate, filter through the private hierarchy,
// annotate next use and block IDs, encode and write every stream of the
// suite cfg describes. extra, when set, runs inside each timed set-up
// after the cache exists (the daemon starts there) and returns a stop
// function for all but the last set-up. The store of the last set-up is
// kept.
func (b *bench) buildStore(cfg sim.Config, extra func(sc *streamcache.Cache) (stop func(), err error)) (*storeInfo, error) {
	var times []float64
	var info *storeInfo
	for i := 0; i < setups; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("store%d", i))
		if info != nil {
			os.RemoveAll(info.dir)
		}
		runtime.GC()
		id, end := b.tr.open(b.root, "setup", fmt.Sprint(i))
		start := time.Now()
		sc := streamcache.New(streamcache.Options{Dir: dir})
		var stop func()
		if extra != nil {
			var err error
			if stop, err = extra(sc); err != nil {
				end()
				return nil, err
			}
		}
		c := cfg
		c.Streams = b.provider(sc, id)
		suite, err := sim.NewSuiteContext(context.Background(), c)
		elapsed := time.Since(start).Seconds()
		end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, elapsed)
		info = &storeInfo{dir: dir, bytes: sc.Stats().DiskBytes}
		for _, s := range suite.Streams {
			info.streams = append(info.streams, streamInfo{name: s.Model.Name, model: s.Model,
				llc: uint64(len(s.Accesses)), l1: s.L1Hits, l2: s.L2Hits})
		}
		if stop != nil && i < setups-1 {
			stop()
		}
	}
	b.setE2E("setup_s", median(times), "s")
	b.setLayer("proc.setup_rss_mb", peakRSSMB(), "MB")
	var llc, l1, l2 uint64
	for _, s := range info.streams {
		llc, l1, l2 = llc+s.llc, l1+s.l1, l2+s.l2
	}
	b.setLayer("cache.llc_accesses", float64(llc), "count")
	b.setLayer("cache.l1_hits", float64(l1), "count")
	b.setLayer("cache.l2_hits", float64(l2), "count")
	b.setLayer("streamcache.snapshot_mb", float64(info.bytes)/1e6, "MB")
	return info, nil
}

// loadStreams serves the store's streams one at a time to fn, from a cache
// that keeps at most one stream resident, on two workers. The check phase
// uses it, so checks never hold more than two streams at once.
func (b *bench) loadStreams(info *storeInfo, fn func(si streamInfo, s *sim.Stream)) {
	sc := streamcache.New(streamcache.Options{Dir: info.dir, MemBudget: 1})
	next := make(chan streamInfo)
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for si := range next {
				s, err := sc.Stream(context.Background(), si.model, machine, b.traceSeed)
				if b.op("stream", err) != nil {
					b.check(false, "%s: reload from store: %v", si.name, err)
					continue
				}
				fn(si, s)
			}
		}()
	}
	for _, si := range info.streams {
		next <- si
	}
	close(next)
	<-done
	<-done
}

// machine is the paper's simulated machine; experiments override the LLC.
var machine = cache.DefaultConfig()
