package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"sharellc/internal/cache"
	"sharellc/internal/oracle"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// The checks compare the simulator's rendered table cells with values the
// reference models (ref.go) compute from the same LLC streams, formatted
// here as the tables print them: counts as integers, rates with three
// decimals, shares as percentages with two.

func toRef(s *sim.Stream) []refAccess {
	out := make([]refAccess, len(s.Accesses))
	for i, a := range s.Accesses {
		out[i] = refAccess{Block: a.Block, Core: a.Core, Write: a.Write}
	}
	return out
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

func dec3(x float64) string { return fmt.Sprintf("%.3f", x) }

// reduction is (base-other)/base as the tables print it.
func reduction(base, other uint64) string {
	if base == 0 {
		return pct(0)
	}
	return pct(float64(int64(base)-int64(other)) / float64(base))
}

// charCells are the F1/F2 cells after workload and suite.
func charCells(r refLLCResult) []string {
	return []string{
		strconv.FormatUint(r.Accesses, 10),
		dec3(frac(r.Misses, r.Accesses)),
		pct(frac(r.SharedHits, r.Hits)),
		pct(frac(r.ROSharedHits, r.Hits)),
		pct(frac(r.RWSharedHits, r.Hits)),
		pct(frac(r.SharedResidencies, r.Residencies)),
		pct(frac(r.SharedBlocks, r.DistinctBlocks)),
	}
}

// degreeCells are the F3 cells after workload: residency then hit shares
// by sharing degree 1, 2, 3-4 and 5+.
func degreeCells(r refLLCResult) []string {
	bucket := func(byDegree [257]uint64) []string {
		var b [4]uint64
		var total uint64
		for d := 1; d < len(byDegree); d++ {
			i := 3
			switch {
			case d == 1:
				i = 0
			case d == 2:
				i = 1
			case d <= 4:
				i = 2
			}
			b[i] += byDegree[d]
			total += byDegree[d]
		}
		out := make([]string, 4)
		for i := range b {
			out[i] = pct(frac(b[i], total))
		}
		return out
	}
	return append(bucket(r.DegreeResidencies), bucket(r.DegreeHits)...)
}

// rows returns the rows of t whose first cell is workload.
func rows(t *report.Table, workload string) [][]string {
	if t == nil {
		return nil
	}
	var out [][]string
	for _, r := range t.Rows {
		if r[0] == workload {
			out = append(out, r)
		}
	}
	return out
}

// cell returns row's value in column name of t.
func cell(t *report.Table, row []string, name string) string {
	for i, h := range t.Headers {
		if h == name {
			return row[i]
		}
	}
	return "<no column " + name + ">"
}

func cellUint(t *report.Table, row []string, name string) uint64 {
	v, err := strconv.ParseUint(cell(t, row, name), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// checkRow compares cells[from:] of the workload's single row in t with want.
func (b *bench) checkRow(t *report.Table, what, workload string, from int, want []string) {
	rs := rows(t, workload)
	if t == nil || len(rs) != 1 {
		b.check(false, "%s %s: want one row, have %d", what, workload, len(rs))
		return
	}
	for i, w := range want {
		b.equal(fmt.Sprintf("%s %s %s", what, workload, t.Headers[from+i]), rs[0][from+i], w)
	}
}

// checkNextUse compares the stream's next-use annotation and positions
// with the reference recomputation.
func (b *bench) checkNextUse(name string, s *sim.Stream, next []int64) {
	bad := -1
	for i, a := range s.Accesses {
		want := next[i]
		if want == neverAgain {
			want = cache.NoNextUse
		}
		if a.NextUse != want || a.Index != int64(i) {
			bad = i
			break
		}
	}
	b.check(bad < 0, "%s: next-use or index differs from the reference at access %d", name, bad)
}

// checkFilter regenerates the application's raw trace, filters it through
// the reference L1/L2 hierarchy and compares the result with the stream
// access by access (block, core, PC, write), and the hit counts.
func (b *bench) checkFilter(m workloads.Model, s *sim.Stream) {
	r, err := m.Generate(b.traceSeed)
	if err != nil {
		b.check(false, "%s: generate: %v", m.Name, err)
		return
	}
	f := newRefFilter(refGeometry{Cores: machine.Cores, L1Size: machine.L1Size, L1Ways: machine.L1Ways,
		L2Size: machine.L2Size, L2Ways: machine.L2Ways})
	n, bad := 0, -1
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		raw := refRaw{Block: uint64(a.Addr) / 64, Core: a.Core, PC: a.PC, Write: a.Write}
		if !f.access(raw) {
			continue
		}
		if bad < 0 {
			if n >= len(s.Accesses) {
				bad = n
			} else if g := s.Accesses[n]; g.Block != raw.Block || g.Core != raw.Core || g.PC != raw.PC || g.Write != raw.Write {
				bad = n
			}
		}
		n++
	}
	b.check(bad < 0 && n == len(s.Accesses), "%s: private filter: stream differs from the reference at LLC access %d (reference %d accesses, stream %d)",
		m.Name, bad, n, len(s.Accesses))
	b.check(f.Refs == s.TraceLen && f.L1Hits == s.L1Hits && f.L2Hits == s.L2Hits,
		"%s: private filter counts: reference refs %d L1 %d L2 %d, stream %d %d %d",
		m.Name, f.Refs, f.L1Hits, f.L2Hits, s.TraceLen, s.L1Hits, s.L2Hits)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// appRef holds the reference models' answers for one application.
type appRef struct {
	lru map[int]refLLCResult // by LLC size
	min map[int]uint64       // MIN misses by LLC size
}

// references runs the reference models over every stream of the store,
// one stream at a time: LRU at lruSizes, MIN at minSizes, the next-use
// recomputation, and for filterApps the reference private hierarchy.
func (b *bench) references(store *storeInfo, lruSizes, minSizes []int, filterApps []string) map[string]*appRef {
	var mu sync.Mutex
	refs := map[string]*appRef{}
	b.loadStreams(store, func(si streamInfo, s *sim.Stream) {
		ra := toRef(s)
		next := refNextUse(ra)
		b.checkNextUse(si.name, s, next)
		r := &appRef{lru: map[int]refLLCResult{}, min: map[int]uint64{}}
		for _, size := range lruSizes {
			r.lru[size] = refLRU(ra, size, 16)
		}
		for _, size := range minSizes {
			r.min[size] = refMIN(ra, next, size, 16)
		}
		if contains(filterApps, si.name) {
			b.checkFilter(si.model, s)
		}
		mu.Lock()
		refs[si.name] = r
		mu.Unlock()
	})
	return refs
}

// checker compares one experiment's tables with the references.
type checker struct {
	b    *bench
	refs map[string]*appRef
	// lruRed is F5's printed LRU reduction by workload and primary LLC
	// size, which F8's oracle column and A4's default-horizon row repeat.
	lruRed map[string]string
}

// ref returns the reference of the row's workload, failing a check when
// the benchmark has none.
func (c *checker) ref(what, app string) *appRef {
	r := c.refs[app]
	c.b.check(r != nil, "%s: no reference stream for %s", what, app)
	return r
}

// workloads lists the distinct first cells of t in order.
func workloadsOf(t *report.Table) []string {
	var out []string
	for _, r := range t.Rows {
		if len(out) == 0 || out[len(out)-1] != r[0] {
			out = append(out, r[0])
		}
	}
	return out
}

// exp checks the tables of experiment id run on apps at primary LLC size
// llc.
func (c *checker) exp(id string, llc int, apps []string, tables []*report.Table) {
	b := c.b
	need := map[string]int{"f1": 1, "f2": 1, "f3": 1, "f4": 1, "f5": 2, "f7": 1, "f8": 1, "f9": 1, "c2": 1, "a4": 1}
	if len(tables) != need[id] {
		b.check(false, "%s: %d tables, want %d", id, len(tables), need[id])
		return
	}
	t := tables[0]
	c.b.equal(id+" workloads", strings.Join(workloadsOf(t), ","), strings.Join(apps, ","))
	mb := func(size int) string { return fmt.Sprintf("%gMB", float64(size)/float64(cache.MB)) }
	redKey := func(app string) string { return app + "@" + mb(llc) }
	for _, app := range workloadsOf(t) {
		r := c.ref(id, app)
		if r == nil {
			continue
		}
		what := fmt.Sprintf("%s %s %s", strings.ToUpper(id), mb(llc), app)
		switch id {
		case "f1":
			b.checkRow(t, what, app, 2, charCells(r.lru[llc]))
		case "f2":
			b.checkRow(t, what, app, 2, charCells(r.lru[2*llc]))
		case "f3":
			b.checkRow(t, what, app, 1, degreeCells(r.lru[llc]))
		case "f4":
			lru, min := r.lru[llc], r.min[llc]
			pol := rows(t, app)
			b.check(len(pol) == 14, "%s: %d policy rows, want 14", what, len(pol))
			for _, row := range pol {
				switch row[1] {
				case "lru":
					b.equal(what+" lru misses", cell(t, row, "misses"), strconv.FormatUint(lru.Misses, 10))
					b.equal(what+" lru shared-hit%", cell(t, row, "shared-hit%"), pct(frac(lru.SharedHits, lru.Hits)))
				case "opt":
					b.equal(what+" opt misses", cell(t, row, "misses"), strconv.FormatUint(min, 10))
				}
				misses := cellUint(t, row, "misses")
				b.check(misses >= min, "%s %s: %d misses, fewer than MIN's %d", what, row[1], misses, min)
			}
		case "f5":
			for i, size := range []int{llc, 2 * llc} {
				t := tables[i]
				lru, min := r.lru[size], r.min[size]
				for _, row := range rows(t, app) {
					w := fmt.Sprintf("F5 %s %s %s", mb(size), app, row[1])
					base, orc := cellUint(t, row, "base-misses"), cellUint(t, row, "oracle-misses")
					if row[1] == "lru" {
						b.equal(w+" base-misses", cell(t, row, "base-misses"), strconv.FormatUint(lru.Misses, 10))
						if i == 0 {
							c.lruRed[redKey(app)] = cell(t, row, "reduction")
						}
					}
					b.check(base >= min && orc >= min, "%s: base %d / oracle %d misses, fewer than MIN's %d", w, base, orc, min)
					b.equal(w+" reduction", cell(t, row, "reduction"), reduction(base, orc))
				}
			}
		case "f7":
			lru := r.lru[llc]
			for _, row := range rows(t, app) {
				b.equal(what+" "+row[1]+" shared-rate", cell(t, row, "shared-rate"), dec3(frac(lru.SharedResidencies, lru.Residencies)))
			}
		case "f8":
			lru, min := r.lru[llc], r.min[llc]
			for _, row := range rows(t, app) {
				w := what + " " + row[1]
				base, driven := cellUint(t, row, "base-misses"), cellUint(t, row, "driven-misses")
				b.equal(w+" base-misses", cell(t, row, "base-misses"), strconv.FormatUint(lru.Misses, 10))
				b.equal(w+" reduction", cell(t, row, "reduction"), reduction(base, driven))
				b.check(driven >= min, "%s: %d misses, fewer than MIN's %d", w, driven, min)
				if red, ok := c.lruRed[redKey(app)]; ok {
					b.equal(w+" oracle-reduction", cell(t, row, "oracle-reduction"), red)
				}
			}
		case "a4":
			horizon := fmt.Sprintf("%dx", oracle.HorizonFactor)
			found := false
			for _, row := range rows(t, app) {
				if row[1] == horizon {
					found = true
					if red, ok := c.lruRed[redKey(app)]; ok {
						b.equal(what+" "+horizon+" reduction", row[2], red)
					}
				}
			}
			b.check(found, "%s: no row at the default horizon %s", what, horizon)
		}
	}
}
