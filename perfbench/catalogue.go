package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// catalogue is a workload made of sharesim-style invocations: each opens
// a fresh stream cache over the store, loads the suite, runs one
// experiment from the index, renders its text tables and drops the suite.
type catalogue struct {
	apps       []string // nil = the full 22-application suite
	exps       []string // experiment ids, run in this order each round
	filterApps []string // apps whose private filtering the reference filter re-derives
	probeApps  []string // apps the probe phase measures layer by layer
	lruSizes   []int    // LLC sizes the LRU reference runs at
	minSizes   []int    // LLC sizes Belady MIN runs at
}

// expOptions are the knobs sharesim passes by default: 4 MB, 16-way,
// full protection and its -policies default (read by f5 only).
func expOptions() sim.ExpOptions {
	return sim.ExpOptions{
		LLCSize:  4 * cache.MB,
		LLCWays:  16,
		Policies: []string{"lru", "nru", "srrip", "drrip", "ship"},
		Prot:     core.Options{Strength: core.Full},
	}
}

// roundStats accumulates one round's per-layer figures.
type roundStats struct {
	wall, load, render float64
	exp, busy          map[string]float64
	builds, disk, mem  uint64
}

func (c catalogue) run(b *bench) error {
	models, err := sim.ModelsByName(c.apps)
	if err != nil {
		return err
	}
	base := sim.Config{Machine: machine, Seed: b.traceSeed, Scale: 1, Models: models}
	store, err := b.buildStore(base, nil)
	if err != nil {
		return err
	}

	var rounds []roundStats
	var tables map[string][]*report.Table
	ms0 := readMem()
	cpu0 := cpuSeconds()
	timed := time.Now()
	for len(rounds) == 0 || time.Since(timed).Seconds() < b.seconds {
		rs, t, err := c.round(b, store, base, len(rounds))
		if err != nil {
			return err
		}
		rounds = append(rounds, rs)
		tables = t
	}
	cpu := cpuSeconds() - cpu0
	b.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	b.procMetrics(ms0, readMem(), cpu, len(rounds))

	walls := pick(rounds, func(r roundStats) float64 { return r.wall })
	b.setE2E("wall_s", median(walls), "s")
	b.setLayer("bench.traced_wall_s", median(walls), "s")
	b.setLayer("sim.load_s", median(pick(rounds, func(r roundStats) float64 { return r.load })), "s")
	b.setLayer("report.render_ms", 1e3*median(pick(rounds, func(r roundStats) float64 { return r.render })), "ms")
	for _, id := range c.exps {
		b.setLayer("sim."+id+"_s", median(pick(rounds, func(r roundStats) float64 { return r.exp[id] })), "s")
		b.setLayer("sim."+id+"_busy", median(pick(rounds, func(r roundStats) float64 { return r.busy[id] })), "ratio")
	}
	last := rounds[len(rounds)-1] // counts repeat exactly from round to round
	b.setLayer("streamcache.builds", float64(last.builds), "count")
	b.setLayer("streamcache.disk_hits", float64(last.disk), "count")
	b.setLayer("streamcache.mem_hits", float64(last.mem), "count")
	lens := map[string]uint64{}
	for _, s := range store.streams {
		lens[s.name] = s.llc
	}
	var lanes uint64
	for _, id := range c.exps {
		lanes += laneAccesses(id, tables[id], lens)
	}
	b.setLayer("sim.lane_accesses", float64(lanes), "count")

	if b.tr != nil {
		p := probeParams{apps: c.probeApps, scale: 1, llcSize: 4 * cache.MB, ran: c.exps}
		if err := b.probe(store, p); err != nil {
			return err
		}
	}
	refs := b.references(store, c.lruSizes, c.minSizes, c.filterApps)
	ch := &checker{b: b, refs: refs, lruRed: map[string]string{}}
	var apps []string
	for _, s := range store.streams {
		apps = append(apps, s.name)
	}
	for _, id := range c.exps {
		ch.exp(id, 4*cache.MB, apps, tables[id])
	}
	return nil
}

// round runs every invocation of the catalogue once; its wall time is the
// sum of the invocations'.
func (c catalogue) round(b *bench, store *storeInfo, base sim.Config, n int) (roundStats, map[string][]*report.Table, error) {
	rs := roundStats{exp: map[string]float64{}, busy: map[string]float64{}}
	tables := map[string][]*report.Table{}
	id, end := b.tr.open(b.root, "round", fmt.Sprint(n))
	defer end()
	for _, expID := range c.exps {
		e, err := sim.ExperimentByID(expID)
		if err != nil {
			return rs, nil, err
		}
		// Each sharesim invocation is a process of its own: the previous
		// one's heap is gone before the next starts. Collecting it here,
		// outside the timed invocation, keeps one invocation's garbage
		// out of the next one's time and memory.
		runtime.GC()
		start := time.Now()
		t, err := b.invoke(id, store.dir, base, e, &rs)
		rs.wall += time.Since(start).Seconds()
		if b.op("invocation", err) != nil {
			continue
		}
		tables[expID] = t
	}
	return rs, tables, nil
}

// invoke is one sharesim invocation: fresh stream cache over the store,
// suite load, the experiment's Run, text rendering.
func (b *bench) invoke(parent int64, dir string, base sim.Config, e sim.Experiment, rs *roundStats) ([]*report.Table, error) {
	inv, end := b.tr.open(parent, "invocation", e.ID)
	defer end()
	sc := streamcache.New(streamcache.Options{Dir: dir})
	cfg := base
	loadID, endLoad := b.tr.open(inv, "load", e.ID)
	cfg.Streams = b.provider(sc, loadID)
	t0 := time.Now()
	suite, err := sim.NewSuiteContext(context.Background(), cfg)
	rs.load += time.Since(t0).Seconds()
	endLoad()
	if err != nil {
		return nil, err
	}
	st := sc.Stats()
	rs.builds += st.Builds
	rs.disk += st.DiskHits
	rs.mem += st.Hits

	_, endRun := b.tr.open(inv, "run", e.ID)
	c0, t1 := cpuSeconds(), time.Now()
	tables, err := e.Run(suite, expOptions())
	span := time.Since(t1).Seconds()
	cpu := cpuSeconds() - c0
	endRun()
	if err != nil {
		return nil, err
	}
	rs.exp[e.ID] = span
	rs.busy[e.ID] = cpu / (span * float64(runtime.GOMAXPROCS(0)))

	_, endRender := b.tr.open(inv, "render", e.ID)
	t2 := time.Now()
	var out bytes.Buffer
	for _, t := range tables {
		if err := t.Render(&out); err != nil {
			endRender()
			return nil, err
		}
	}
	rs.render += time.Since(t2).Seconds()
	endRender()
	return tables, nil
}

func pick(rs []roundStats, f func(roundStats) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// memSnap is the part of runtime.MemStats the proc metrics use.
type memSnap struct {
	gc         uint32
	pauseNs    uint64
	allocBytes uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{gc: ms.NumGC, pauseNs: ms.PauseTotalNs, allocBytes: ms.TotalAlloc}
}

// procMetrics records the process-level figures of the timed part, per
// round.
func (b *bench) procMetrics(before, after memSnap, cpu float64, rounds int) {
	n := float64(rounds)
	b.setLayer("proc.cpu_s", cpu/n, "s")
	b.setLayer("proc.gc_cycles", float64(after.gc-before.gc)/n, "count")
	b.setLayer("proc.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6/n, "ms")
	b.setLayer("proc.alloc_gb", float64(after.allocBytes-before.allocBytes)/1e9/n, "GB")
}

// laneAccesses counts the stream accesses an experiment's tables describe
// as replayed: one pass of the workload's stream per replayed lane or
// analyzer. F4 and F7 rows are one lane each; an F5 row is two (bare base
// and protected oracle pass); F8 adds the shared base and oracle lanes to
// one lane per predictor row; A4 adds the shared base lane to one
// protected lane per horizon row; F1-F3, F9 and C2 make one pass per
// workload.
func laneAccesses(exp string, tables []*report.Table, lens map[string]uint64) uint64 {
	var n uint64
	for _, t := range tables {
		seen := map[string]bool{}
		for _, row := range t.Rows {
			w := row[0]
			first := !seen[w]
			seen[w] = true
			switch exp {
			case "f4", "f7":
				n += lens[w]
			case "f5":
				n += 2 * lens[w]
			case "f8", "a4":
				n += lens[w]
				if first {
					extra := uint64(1)
					if exp == "f8" {
						extra = 2
					}
					n += extra * lens[w]
				}
			case "c2":
				if first {
					n += lens[w]
				}
			default:
				n += lens[w]
			}
		}
	}
	return n
}
