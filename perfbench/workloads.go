package main

import "sharellc/internal/cache"

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(b *bench) error
}

// allExps is every experiment some workload runs; each traced run reports
// sim.<exp>_s and sim.<exp>_busy for all of them (see probe.go).
var allExps = []string{"f1", "f2", "f3", "f4", "f5", "f7", "f8", "f9", "c2", "a4"}

// The policy sweep runs what `sharesim -exp f1|f2|f3|f4|f9|c2` would do
// over the full suite at the paper's defaults: batched fused replay, the
// F9/C2 analyzers and snapshot decode, with no Protector lane.
var policySweep = catalogue{
	exps:       []string{"f1", "f2", "f3", "f4", "f9", "c2"},
	filterApps: []string{"canneal", "streamcluster", "swaptions"},
	probeApps:  []string{"barnes"},
	lruSizes:   []int{4 * cache.MB, 8 * cache.MB},
	minSizes:   []int{4 * cache.MB},
}

// The oracle study is the paper's headline path on six applications that
// mix read-write sharing (canneal, barnes, water), read-only sharing
// (streamcluster, freqmine) and near-private behaviour (swaptions): the
// hooked sequential Protector lanes, the oracle hints and the predictors.
var oracleStudy = catalogue{
	apps:       []string{"canneal", "streamcluster", "barnes", "water", "freqmine", "swaptions"},
	exps:       []string{"f5", "f7", "f8", "a4"},
	filterApps: []string{"water"},
	probeApps:  []string{"barnes"},
	lruSizes:   []int{4 * cache.MB, 8 * cache.MB},
	minSizes:   []int{4 * cache.MB, 8 * cache.MB},
}

func workloadList() []workload {
	return []workload{
		{"policy-sweep", policySweep.run},
		{"oracle-study", oracleStudy.run},
		{"daemon-jobs", runDaemonJobs},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
