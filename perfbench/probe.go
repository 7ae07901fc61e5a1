package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/oracle"
	"sharellc/internal/phase"
	"sharellc/internal/policy"
	"sharellc/internal/predictor"
	"sharellc/internal/reuse"
	"sharellc/internal/sharing"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// probeParams are the workload's own parameters the probe phase uses.
type probeParams struct {
	apps    []string // the workload's applications the probes run on
	scale   float64
	llcSize int      // the workload's primary LLC size
	ran     []string // experiments the timed part already spanned
	daemon  bool     // whether the timed part already measured the daemon
}

// crossSet are the policies whose state spans sets, which the fused replay
// runs as two-phase lanes.
var crossSet = []string{"random", "bip", "dip", "brrip", "drrip", "ship", "ship-s"}

// f5Bases are the F5 base policies.
var f5Bases = []string{"lru", "nru", "srrip", "drrip", "ship"}

// probe calls each layer function on the workload's own streams and
// parameters and records its throughput, one span per call. Every traced
// run reports every per-layer metric: experiments the timed part did not
// run are run here once on a suite of the probe applications, and a
// workload that does not go through the daemon submits a short job mix
// to one here.
func (b *bench) probe(store *storeInfo, p probeParams) error {
	pid, end := b.tr.open(b.root, "probe", "")
	defer end()
	ctx := context.Background()
	seed := b.traceSeed
	var (
		refs, genS, filterS                float64
		acc, annS, partS                   float64
		snapBytes, writeS, loadS           float64
		charS, multiS, twoS, hintsS        float64
		studyS, evalS, driveS, phS, reuseS float64
		excl, protFills                    uint64
	)
	timeIt := func(name, label string, f func() error) (float64, error) {
		start := time.Now()
		err := f()
		end := time.Now()
		b.tr.add(pid, name, label, start, end)
		return end.Sub(start).Seconds(), b.op("probe", err)
	}
	lru := func() cache.Policy { return policy.NewLRUPolicy() }
	llc := p.llcSize
	ld := streamcache.New(streamcache.Options{Dir: filepath.Join(b.work, "probe"), MemBudget: -1})
	for _, si := range store.streams {
		if !contains(p.apps, si.name) {
			continue
		}
		m := si.model
		label := m.Name
		d, err := timeIt("workloads.generate", label, func() error {
			r, err := m.Generate(seed)
			if err != nil {
				return err
			}
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				refs++
			}
			return r.Err()
		})
		if err != nil {
			return err
		}
		genS += d
		genD := d
		var stream []cache.AccessInfo
		d, err = timeIt("cache.filter", label, func() error {
			r, err := m.Generate(seed)
			if err != nil {
				return err
			}
			stream, _, err = cache.FilterStream(r, machine)
			return err
		})
		if err != nil {
			return err
		}
		filterS += d - genD
		if d, err = timeIt("cache.annotate", label, func() error { cache.AnnotateNextUse(stream); return nil }); err != nil {
			return err
		}
		annS += d
		acc += float64(len(stream))
		stream = nil

		// Snapshot write and load through the cache's public surface: the
		// store's image installed into an empty store, then loaded back by
		// a fresh cache over it.
		key := streamcache.Key(m, machine, seed)
		data, ok := streamcache.New(streamcache.Options{Dir: store.dir, MemBudget: 1}).SnapshotBytes(key)
		if !ok {
			return fmt.Errorf("probe: no snapshot for %s in the store", m.Name)
		}
		snapBytes += float64(len(data))
		if d, err = timeIt("streamcache.write", label, func() error {
			_, err := streamcache.New(streamcache.Options{Dir: ld.Dir()}).PutSnapshot(key, data, m)
			return err
		}); err != nil {
			return err
		}
		writeS += d
		var s *sim.Stream
		if d, err = timeIt("streamcache.load", label, func() error {
			var err error
			s, err = ld.Stream(ctx, m, machine, seed)
			return err
		}); err != nil {
			return err
		}
		loadS += d
		ropt := func() sharing.Options { return s.ReplayOptions(0, ctx) }

		if d, err = timeIt("sharing.partition", label, func() error {
			_, err := sharing.BuildPartition(s.Accesses, 16)
			return err
		}); err != nil {
			return err
		}
		partS += d
		if d, err = timeIt("sharing.char", label, func() error {
			_, err := sharing.ReplayParallel(s.Accesses, llc, 16, lru, ropt())
			return err
		}); err != nil {
			return err
		}
		charS += d
		lanes := func(names []string) ([]sharing.LLCConfig, error) {
			out := make([]sharing.LLCConfig, len(names))
			for i, name := range names {
				f, err := policy.ByName(name, seed)
				if err != nil {
					return nil, err
				}
				out[i] = sharing.LLCConfig{Size: llc, Ways: 16, NewPolicy: f}
			}
			return out, nil
		}
		all, err := lanes(policy.Names(seed))
		if err != nil {
			return err
		}
		if d, err = timeIt("sharing.multi", label, func() error {
			_, err := sharing.ReplayMulti(s.Accesses, all, ropt())
			return err
		}); err != nil {
			return err
		}
		multiS += d / float64(len(all))
		cross, err := lanes(crossSet)
		if err != nil {
			return err
		}
		if d, err = timeIt("sharing.twophase", label, func() error {
			_, err := sharing.ReplayMulti(s.Accesses, cross, ropt())
			return err
		}); err != nil {
			return err
		}
		twoS += d / float64(len(cross))
		var hints []bool
		if d, err = timeIt("oracle.hints", label, func() error {
			hints = oracle.SharedHints(s.Accesses, int64(oracle.HorizonFactor)*int64(llc/64))
			return nil
		}); err != nil {
			return err
		}
		hintsS += d
		bases := make([]func() cache.Policy, len(f5Bases))
		for i, name := range f5Bases {
			f, err := policy.ByName(name, seed)
			if err != nil {
				return err
			}
			bases[i] = f
		}
		if d, err = timeIt("oracle.study", label, func() error {
			res, err := oracle.RunMultiPolicies(ctx, s.Accesses, llc, 16, bases, core.Options{Strength: core.Full}, oracle.HorizonFactor, ropt())
			for _, r := range res {
				excl += r.Stats.Exclusions
				protFills += r.Stats.ProtectedFills
			}
			return err
		}); err != nil {
			return err
		}
		studyS += d / float64(2*len(bases))
		if d, err = timeIt("predictor.eval", label, func() error {
			addr, pc, err := predictors()
			if err != nil {
				return err
			}
			_, err = predictor.EvaluateMulti(ctx, s.Accesses, llc, 16, lru, []predictor.Predictor{addr, pc})
			return err
		}); err != nil {
			return err
		}
		evalS += d / 2
		if d, err = timeIt("predictor.drive", label, func() error {
			addr, _, err := predictors()
			if err != nil {
				return err
			}
			_, _, err = predictor.DriveOptsCtx(ctx, s.Accesses, llc, 16, policy.NewLRUPolicy(), addr, core.Options{Strength: core.Full})
			return err
		}); err != nil {
			return err
		}
		driveS += d
		if d, err = timeIt("phase.analyze", label, func() error {
			_, err := phase.Analyze(s.Accesses, phase.DefaultWindows)
			return err
		}); err != nil {
			return err
		}
		phS += d
		if d, err = timeIt("reuse.analyze", label, func() error {
			_, err := reuse.Analyze(s.Accesses, hints)
			return err
		}); err != nil {
			return err
		}
		reuseS += d
	}
	rate := func(work, secs float64) float64 {
		if secs <= 0 {
			return 0
		}
		return work / secs / 1e6
	}
	b.setLayer("workloads.gen_mref_per_s", rate(refs, genS), "Mref/s")
	b.setLayer("cache.filter_mref_per_s", rate(refs, filterS), "Mref/s")
	b.setLayer("cache.annotate_maccess_per_s", rate(acc, annS), "Maccess/s")
	b.setLayer("streamcache.write_mb_per_s", rate(snapBytes, writeS), "MB/s")
	b.setLayer("streamcache.load_mb_per_s", rate(snapBytes, loadS), "MB/s")
	b.setLayer("sharing.partition_ms", 1e3*partS, "ms")
	b.setLayer("sharing.char_maccess_per_s", rate(acc, charS), "Maccess/s")
	b.setLayer("sharing.multi_maccess_per_s", rate(acc, multiS), "lane-Maccess/s")
	b.setLayer("sharing.twophase_maccess_per_s", rate(acc, twoS), "lane-Maccess/s")
	b.setLayer("oracle.hints_maccess_per_s", rate(acc, hintsS), "Maccess/s")
	b.setLayer("oracle.study_maccess_per_s", rate(acc, studyS), "lane-Maccess/s")
	b.setLayer("core.exclusions", float64(excl), "count")
	b.setLayer("core.protected_fills", float64(protFills), "count")
	b.setLayer("predictor.eval_maccess_per_s", rate(acc, evalS), "lane-Maccess/s")
	b.setLayer("predictor.drive_maccess_per_s", rate(acc, driveS), "Maccess/s")
	b.setLayer("phase.maccess_per_s", rate(acc, phS), "Maccess/s")
	b.setLayer("reuse.maccess_per_s", rate(acc, reuseS), "Maccess/s")

	// Experiments the timed part did not run, once each on the probe apps.
	models, err := sim.ModelsByName(p.apps)
	if err != nil {
		return err
	}
	cfg := sim.Config{Machine: machine, Seed: seed, Scale: p.scale, Models: models, Streams: ld.Stream}
	suite, err := sim.NewSuiteContext(ctx, cfg)
	if b.op("probe", err) != nil {
		return err
	}
	opts := expOptions()
	opts.LLCSize = llc
	for _, id := range allExps {
		if contains(p.ran, id) {
			continue
		}
		e, err := sim.ExperimentByID(id)
		if err != nil {
			return err
		}
		c0 := cpuSeconds()
		d, err := timeIt("sim.run", id, func() error {
			_, err := e.Run(suite, opts)
			return err
		})
		if err != nil {
			return err
		}
		b.setLayer("sim."+id+"_s", d, "s")
		b.setLayer("sim."+id+"_busy", (cpuSeconds()-c0)/(d*float64(runtime.GOMAXPROCS(0))), "ratio")
	}
	if !p.daemon {
		return b.daemonProbe(pid, ld, p)
	}
	return nil
}

func predictors() (predictor.Predictor, predictor.Predictor, error) {
	addr, err := predictor.NewAddress(predictor.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	pc, err := predictor.NewPC(predictor.DefaultConfig())
	return addr, pc, err
}
