package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/report"
	"sharellc/internal/server"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
	"sharellc/internal/workloads"
)

// The daemon-jobs workload drives an in-process sharesimd on loopback with
// a closed-loop client of two connections. Jobs are small (reduced scale,
// one to three applications) so the daemon's own per-job cost stays a
// visible share of the wall time.
const (
	daemonScale  = 0.125
	daemonFresh  = 120 // single fresh submissions per round
	daemonRepeat = 30  // exact repeats of an earlier, finished request
	daemonPairs  = 10  // fresh requests both connections submit at once
)

// daemonLLCMB are the job mix's LLC sizes: the paper's 4 MB and 8 MB
// scaled with the workloads.
var daemonLLCMB = []float64{0.5, 1}

var daemonExps = []string{"f1", "f3", "f4", "f5", "f7", "f9"}

// pairExps are the experiments pair submissions draw from: long enough
// that the second submission arrives while the first is still running,
// so the daemon coalesces it.
var pairExps = []string{"f4", "f5", "f7"}

const (
	stepSingle = iota
	stepRepeat
	stepPair
)

type step struct {
	kind int
	req  server.Request
	orig int // stepRepeat: the step it repeats
}

// reqKey identifies a request by the fields the mix varies.
func reqKey(r server.Request) string {
	return fmt.Sprintf("%s|%g|%s", r.Exp, r.LLCMB, strings.Join(r.Workloads, ","))
}

// jobMix is the seeded job sequence of one round. The seed picks the
// applications, the order of the steps and which earlier job a repeat
// repeats; the shape of the work is the same for every seed: each
// experiment gets an equal share of the fresh singles, spread evenly over
// 1, 2 and 3 applications and over the two LLC sizes.
func jobMix(mixSeed, traceSeed uint64, apps []string) []step {
	rng := rand.New(rand.NewSource(int64(mixSeed)))
	seen := map[string]bool{}
	fresh := func(exp string, n, llc int) server.Request {
		for {
			var names []string
			for _, i := range rng.Perm(len(apps))[:n] {
				names = append(names, apps[i])
			}
			sort.Strings(names)
			r := server.Request{Exp: exp, LLCMB: daemonLLCMB[llc], Ways: 16,
				Seed: traceSeed, Scale: daemonScale, Workloads: names}
			if k := reqKey(r); !seen[k] {
				seen[k] = true
				return r
			}
		}
	}
	var singles, pairs []server.Request
	for i := 0; i < daemonFresh; i++ {
		singles = append(singles, fresh(daemonExps[i%len(daemonExps)], 1+i/len(daemonExps)%3, i/(3*len(daemonExps))%2))
	}
	for i := 0; i < daemonPairs; i++ {
		pairs = append(pairs, fresh(pairExps[i%len(pairExps)], 2+i%2, i%2))
	}
	rng.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })

	// The first ten steps are singles so every repeat has an original;
	// the kinds of the rest are shuffled.
	kinds := make([]int, 0, daemonFresh-10+daemonRepeat+daemonPairs)
	for i := 0; i < daemonFresh-10; i++ {
		kinds = append(kinds, stepSingle)
	}
	for i := 0; i < daemonRepeat; i++ {
		kinds = append(kinds, stepRepeat)
	}
	for i := 0; i < daemonPairs; i++ {
		kinds = append(kinds, stepPair)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	kinds = append(make([]int, 10), kinds...) // stepSingle is 0
	var steps []step
	var done []int // indices of single steps so far
	for _, k := range kinds {
		switch k {
		case stepSingle:
			done = append(done, len(steps))
			steps = append(steps, step{kind: k, req: singles[0]})
			singles = singles[1:]
		case stepPair:
			steps = append(steps, step{kind: k, req: pairs[0]})
			pairs = pairs[1:]
		case stepRepeat:
			// Repeat one of the last 20 singles: well inside the daemon's
			// 64-entry result cache, so the repeat is always a cache hit.
			from := max(len(done)-20, 0)
			o := done[from+rng.Intn(len(done)-from)]
			steps = append(steps, step{kind: k, req: steps[o].req, orig: o})
		}
	}
	return steps
}

// submission is one POST and what the client saw of it.
type submission struct {
	step   int
	req    server.Request
	start  chan struct{} // pair submissions wait on it to POST together
	done   chan struct{}
	status int
	cached bool
	state  string
	events int
	tables []byte
	err    error

	post, running, term, fetched time.Time
}

// daemon is one in-process sharesimd on a loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startDaemon(sc *streamcache.Cache) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  server.New(server.Config{Workers: 2, StreamCache: sc}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop drains the job manager, closes the listener and waits for the
// serving goroutine to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Manager().Shutdown(ctx)
	d.hs.Shutdown(ctx)
	<-d.done
}

// client is one closed-loop connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

var errRefused = errors.New("503: daemon refused the job")

// do submits one job, follows its SSE stream to the terminal state event
// and fetches the result.
func (c *client) do(s *submission) {
	defer close(s.done)
	if s.start != nil {
		<-s.start
	}
	body, _ := json.Marshal(s.req)
	s.post = time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	var view struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.status, s.cached = resp.StatusCode, view.Cached
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		s.err = errRefused
		return
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		s.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return
	case err != nil:
		s.err = fmt.Errorf("submit: %w", err)
		return
	}

	resp, err = c.http.Get(c.base + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		s.err = err
		return
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		s.events++
		var ev server.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			s.err = fmt.Errorf("event: %w", err)
			break
		}
		if ev.Type != "state" {
			continue
		}
		now := time.Now()
		if ev.State == "running" && s.running.IsZero() {
			s.running = now
		}
		if ev.State == "done" || ev.State == "failed" || ev.State == "cancelled" {
			s.term, s.state = now, string(ev.State)
			break
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if s.err != nil {
		return
	}
	if s.term.IsZero() {
		s.err = errors.New("event stream ended before a terminal state")
		return
	}

	resp, err = c.http.Get(c.base + "/v1/jobs/" + view.ID)
	if err != nil {
		s.err = err
		return
	}
	var result struct {
		State  string          `json:"state"`
		Tables json.RawMessage `json:"tables"`
	}
	err = json.NewDecoder(resp.Body).Decode(&result)
	resp.Body.Close()
	s.fetched = time.Now()
	if err != nil {
		s.err = fmt.Errorf("fetch: %w", err)
		return
	}
	s.tables = result.Tables
}

// drive runs the steps with two closed-loop connections: each connection
// submits its next job only once its previous one is fetched. A repeat
// waits for the run it repeats to finish; a pair waits for both
// connections to be idle, then both submit the same request at once.
func drive(base string, steps []step) []*submission {
	work := make(chan *submission)
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		c := newClient(base)
		workers.Add(1)
		go func() {
			defer workers.Done()
			defer c.http.CloseIdleConnections()
			for s := range work {
				c.do(s)
			}
		}()
	}
	var subs []*submission
	first := map[int]*submission{} // step -> its first submission
	var pending []*submission
	waitAll := func() {
		for _, s := range pending {
			<-s.done
		}
		pending = pending[:0]
	}
	for i, st := range steps {
		mk := func(start chan struct{}) *submission {
			s := &submission{step: i, req: st.req, start: start, done: make(chan struct{})}
			subs = append(subs, s)
			pending = append(pending, s)
			if first[i] == nil {
				first[i] = s
			}
			return s
		}
		switch st.kind {
		case stepSingle:
			work <- mk(nil)
		case stepRepeat:
			<-first[st.orig].done
			work <- mk(nil)
		case stepPair:
			waitAll()
			start := make(chan struct{})
			work <- mk(start)
			work <- mk(start)
			close(start)
		}
	}
	waitAll()
	close(work)
	workers.Wait()
	return subs
}

func runDaemonJobs(b *bench) error {
	var apps []string
	for _, m := range workloads.Suite() {
		apps = append(apps, m.Name)
	}
	var (
		d  *daemon
		sc *streamcache.Cache
	)
	cfg := sim.Config{Machine: machine, Seed: b.traceSeed, Scale: daemonScale}
	store, err := b.buildStore(cfg, func(c *streamcache.Cache) (func(), error) {
		var err error
		sc = c
		d, err = startDaemon(c)
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return err
	}
	steps := jobMix(b.mixSeed, b.traceSeed, apps)

	var (
		walls         []float64
		subs, last    []*submission
		before, after streamcache.Stats
	)
	ms0, cpu0 := readMem(), cpuSeconds()
	timed := time.Now()
	// At least three rounds, so the median round is never the first
	// round alone nor the mean of two.
	for len(walls) < 3 || time.Since(timed).Seconds() < b.seconds {
		if len(walls) > 0 {
			runtime.GC()
			if d, err = startDaemon(sc); err != nil {
				return err
			}
		}
		rid, endRound := b.tr.open(b.root, "round", fmt.Sprint(len(walls)))
		before = sc.Stats()
		start := time.Now()
		last = drive(d.base, steps)
		walls = append(walls, time.Since(start).Seconds())
		after = sc.Stats()
		endRound()
		d.stop()
		for _, s := range last {
			b.op("job", s.err)
			if b.tr != nil && !s.post.IsZero() {
				b.spanJob(rid, s)
			}
		}
		subs = append(subs, last...)
	}
	cpu := cpuSeconds() - cpu0
	b.setE2E("peak_rss_mb", peakRSSMB(), "MB")
	b.procMetrics(ms0, readMem(), cpu, len(walls))
	b.setE2E("wall_s", median(walls), "s")
	b.setLayer("bench.traced_wall_s", median(walls), "s")
	b.setLayer("streamcache.builds", float64(after.Builds-before.Builds), "count")
	b.setLayer("streamcache.disk_hits", float64(after.DiskHits-before.DiskHits), "count")
	b.setLayer("streamcache.mem_hits", float64(after.Hits-before.Hits), "count")
	b.serverMetrics(subs, last)

	// Job results as sim.<exp> tables, for the lane count and rendering.
	lens := map[string]uint64{}
	for _, s := range store.streams {
		lens[s.name] = s.llc
	}
	var lanes uint64
	var renderS float64
	for _, s := range last {
		if s.status != http.StatusAccepted || s.err != nil {
			continue
		}
		tables, err := decodeTables(s.tables)
		if err != nil {
			continue
		}
		lanes += laneAccesses(s.req.Exp, tables, lens)
		t0 := time.Now()
		for _, t := range tables {
			t.Render(io.Discard)
		}
		renderS += time.Since(t0).Seconds()
	}
	b.setLayer("sim.lane_accesses", float64(lanes), "count")
	b.setLayer("report.render_ms", 1e3*renderS, "ms")

	if b.tr != nil {
		p := probeParams{apps: []string{"canneal", "barnes"}, scale: daemonScale,
			llcSize: int(daemonLLCMB[0] * float64(cache.MB)), daemon: true}
		if err := b.probe(store, p); err != nil {
			return err
		}
		// The daemon loads suites inside its jobs; sim.load_s is one load
		// of the whole reduced-scale suite from the store, as a job would.
		t0 := time.Now()
		cfg.Streams = streamcache.New(streamcache.Options{Dir: store.dir}).Stream
		_, err := sim.NewSuiteContext(context.Background(), cfg)
		b.setLayer("sim.load_s", time.Since(t0).Seconds(), "s")
		if b.op("probe", err) != nil {
			return err
		}
	}
	b.checkJobs(store, last)
	return nil
}

func decodeTables(raw []byte) ([]*report.Table, error) {
	var tables []*report.Table
	err := json.Unmarshal(raw, &tables)
	return tables, err
}

// spanJob records a job's spans from the client's timestamps: the job
// from POST to the terminal event, its queue wait (POST to running) and
// run (running to terminal), and the result fetch.
func (b *bench) spanJob(parent int64, s *submission) {
	label := fmt.Sprintf("%d %s", s.step, reqKey(s.req))
	if s.term.IsZero() {
		return
	}
	id := b.tr.add(parent, "job", label, s.post, s.term)
	if !s.running.IsZero() {
		b.tr.add(id, "job.queue", label, s.post, s.running)
		b.tr.add(id, "job.run", label, s.running, s.term)
	}
	if !s.fetched.IsZero() {
		b.tr.add(parent, "job.fetch", label, s.term, s.fetched)
	}
}

// serverMetrics derives the server.* metrics from the client's view: job
// latencies over every round, counts from the last round.
func (b *bench) serverMetrics(all, last []*submission) {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var fresh, hit, queue []float64
	for _, s := range all {
		if s.err != nil {
			continue
		}
		if s.status == http.StatusAccepted {
			fresh = append(fresh, ms(s.term.Sub(s.post)))
			if !s.running.IsZero() {
				queue = append(queue, ms(s.running.Sub(s.post)))
			}
		} else {
			hit = append(hit, ms(s.term.Sub(s.post)))
		}
	}
	var hits, coalesced, events int
	for _, s := range last {
		events += s.events
		if s.err == nil && s.status == http.StatusOK {
			if s.cached {
				hits++
			} else {
				coalesced++
			}
		}
	}
	b.setLayer("server.job_p50_ms", quantile(fresh, 0.5), "ms")
	b.setLayer("server.job_p90_ms", quantile(fresh, 0.9), "ms")
	b.setLayer("server.hit_p50_ms", quantile(hit, 0.5), "ms")
	b.setLayer("server.queue_p50_ms", quantile(queue, 0.5), "ms")
	b.setLayer("server.fresh_jobs", float64(len(fresh)), "count")
	b.setLayer("server.cache_hits", float64(hits), "count")
	b.setLayer("server.coalesced", float64(coalesced), "count")
	b.setLayer("server.sse_events", float64(events), "count")
}

// checkJobs: every job reached done, every repeated or coalesced job got
// tables byte-identical to the first answer to its request, and every
// fresh job's tables agree with the reference models at the job's scale
// and LLC size.
func (b *bench) checkJobs(store *storeInfo, subs []*submission) {
	var sizes []int
	for _, mb := range daemonLLCMB {
		sizes = append(sizes, int(mb*float64(cache.MB)), int(2*mb*float64(cache.MB)))
	}
	refs := b.references(store, sizes, sizes, []string{"canneal"})
	firstAnswer := map[string][]byte{}
	ch := &checker{b: b, refs: refs, lruRed: map[string]string{}}
	for _, s := range subs {
		k := reqKey(s.req)
		b.check(s.err == nil && s.state == "done", "job %d %s: state %q, error %v", s.step, k, s.state, s.err)
		if s.err != nil {
			continue
		}
		if prev, ok := firstAnswer[k]; ok {
			b.check(bytes.Equal(prev, s.tables), "job %d %s: tables differ from the first answer to the same request", s.step, k)
			continue
		}
		firstAnswer[k] = s.tables
		tables, err := decodeTables(s.tables)
		if err != nil {
			b.check(false, "job %d %s: tables: %v", s.step, k, err)
			continue
		}
		ch.exp(s.req.Exp, int(s.req.LLCMB*float64(cache.MB)), s.req.Workloads, tables)
	}
}

// daemonProbe gives a workload that does not go through the daemon its
// server.* figures: a daemon over the probe's stream cache runs one fresh
// job per daemon-mix experiment on the probe apps at the workload's LLC
// size, repeats each, and coalesces one pair.
func (b *bench) daemonProbe(parent int64, sc *streamcache.Cache, p probeParams) error {
	d, err := startDaemon(sc)
	if b.op("probe", err) != nil {
		return err
	}
	req := func(exp string, llc int) server.Request {
		names := append([]string(nil), p.apps...)
		sort.Strings(names)
		return server.Request{Exp: exp, LLCMB: float64(llc) / float64(cache.MB), Ways: 16,
			Seed: b.traceSeed, Scale: p.scale, Workloads: names}
	}
	var steps []step
	for _, exp := range daemonExps {
		steps = append(steps, step{kind: stepSingle, req: req(exp, p.llcSize)})
	}
	for i := range daemonExps {
		steps = append(steps, step{kind: stepRepeat, req: steps[i].req, orig: i})
	}
	steps = append(steps, step{kind: stepPair, req: req("f4", 2*p.llcSize)})
	id, end := b.tr.open(parent, "daemon", "")
	subs := drive(d.base, steps)
	end()
	d.stop()
	for _, s := range subs {
		b.op("probe", s.err)
		b.spanJob(id, s)
	}
	b.serverMetrics(subs, subs)
	return nil
}
