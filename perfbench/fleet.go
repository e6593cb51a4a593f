package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vaq"
	"vaq/internal/api"
	"vaq/internal/shard"
	"vaq/internal/synth"
	"vaq/internal/trace"
)

// The fleet workload: three vaqd shard processes and a vaqd
// -coordinator over loopback, all at default flags, serving a
// hash-partitioned repository built in set-up. One closed-loop client
// sends /v1/topk back to back (global scatters and video-pinned routed
// queries); a second runs standing sessions back to back (create,
// long-poll until done, delete) over a small set of workloads, so the
// shards' shared inference serves them from warm caches. It is the
// only workload that exercises server, api, shard, infer and pool. Its
// traced run also takes the repository layers apart (ingest, table
// writes, opens and reads, rvaq counts) on the in-process legs.

const (
	fleetVideos  = 8
	fleetScale   = 0.1
	sessionScale = 0.05
	fleetSetups  = 3
)

var shardNames = []string{"s0", "s1", "s2"}

// ingestWorkers matches vaqingest's default on the 2-CPU machines the
// benchmark is sized for.
const ingestWorkers = 2

var topKs = []int{1, 5, 15}

// corpusVideo is one generated video of a repository corpus.
type corpusVideo struct {
	name  string
	query vaq.Query
	world *synth.World
}

// topkQuery is one distinct query of a mix: per-video when video is
// set, repository-wide otherwise.
type topkQuery struct {
	video string
	query vaq.Query
	k     int
}

func (q topkQuery) global() bool { return q.video == "" }

func (q topkQuery) String() string {
	v := q.video
	if v == "" {
		v = "*"
	}
	return fmt.Sprintf("%s %v k=%d", v, q.query, q.k)
}

// globalWeight is how often each repository-wide query appears in one
// cycle of the query mix for every appearance of a per-video one. The
// 12 repository-wide queries then fill 48 entries of a cycle and the
// 48 per-video ones the other 48, so scatters to every shard and
// routed single-shard ops are half of the top-k ops each: both paths
// through the coordinator carry the same weight. The run notes print
// the share that ran.
const globalWeight = 4

// opSequence is a seeded query mix: back-to-back shuffles of one cycle
// (every distinct query, global ones globalWeight times), long enough
// for any window. take is safe for concurrent clients.
type opSequence struct {
	order []int
	next  atomic.Int64
}

func newOpSequence(qs []topkQuery, seed int64) *opSequence {
	var cycle []int
	for i, q := range qs {
		n := 1
		if q.video == "" {
			n = globalWeight
		}
		for j := 0; j < n; j++ {
			cycle = append(cycle, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	s := &opSequence{}
	for len(s.order) < 1<<20 {
		for _, j := range rng.Perm(len(cycle)) {
			s.order = append(s.order, cycle[j])
		}
	}
	return s
}

// take returns the index of the next query in the mix.
func (s *opSequence) take() int {
	return s.order[int(s.next.Add(1)-1)%len(s.order)]
}

// ingestResult is a measured ingest.
type ingestResult struct {
	mem        map[string]*vaq.VideoData
	clips      int
	inv        int64
	detectBusy time.Duration
	infer      time.Duration // traced: ingest.infer spans
	stats      time.Duration // traced: ingest.stats spans
	write      time.Duration // Repository.Add
}

// ingestCorpus ingests every video into the repository at dir, timing
// each IngestVideo and Add call. With a span log, the program's own
// ingest.infer / ingest.stats spans are collected through a tracer and
// filed under the benchmark's span around the call.
func ingestCorpus(corpus []corpusVideo, dir string, log *spanLog) (*ingestResult, error) {
	repo, err := vaq.OpenRepository(dir)
	if err != nil {
		return nil, err
	}
	out := &ingestResult{mem: map[string]*vaq.VideoData{}}
	m := &detectMeter{timing: log != nil}
	for _, v := range corpus {
		truth := v.world.Truth
		det, rec := simModels(v.world.Scene(), m, 0)
		ctx := context.Background()
		var tr *vaq.Tracer
		if log != nil {
			tr = vaq.NewTracer()
			ctx = trace.NewContext(ctx, tr)
		}
		t0 := time.Now()
		vd, err := vaq.IngestVideoCtx(ctx, det, rec, truth.Meta, truth.ObjectLabels(), truth.ActionLabels(),
			vaq.IngestConfig{Workers: ingestWorkers})
		if err != nil {
			return nil, fmt.Errorf("ingest %s: %w", v.name, err)
		}
		t1 := time.Now()
		if err := repo.Add(v.name, vd); err != nil {
			return nil, fmt.Errorf("add %s: %w", v.name, err)
		}
		t2 := time.Now()
		out.mem[v.name] = vd
		out.clips += truth.Meta.Clips()
		out.write += t2.Sub(t1)
		if log == nil {
			continue
		}
		id := log.add(0, "ingest.video", t0, t1.Sub(t0), map[string]int64{"clips": int64(truth.Meta.Clips())})
		for _, s := range tr.Spans() {
			switch s.Name {
			case "ingest.infer":
				out.infer += s.Dur
			case "ingest.stats":
				out.stats += s.Dur
			default:
				continue
			}
			log.add(id, s.Name, s.Start, s.Dur, nil)
		}
		log.add(0, "tables.add", t1, t2.Sub(t1), nil)
	}
	out.inv = m.invocations()
	out.detectBusy = time.Duration(m.busy.Load())
	return out, nil
}

// fleetCorpus generates the repository: Table 1 "blowing leaves" (q2)
// scenes, so every video carries the queried labels. The scenes are
// the same for every -seed, which orders the query mix and the
// sessions: the top-k work of eight seeded scenes varies too much from
// seed to seed (the table accesses of one round of the distinct
// queries spread with a coefficient of variation of 0.3 over seeds 1
// to 10) for the fleet's figures to compare across seeds.
func fleetCorpus() ([]corpusVideo, error) {
	spec, q, err := synth.YouTubeSpec("q2", vaq.DefaultGeometry())
	if err != nil {
		return nil, err
	}
	spec = spec.Scaled(fleetScale)
	var out []corpusVideo
	for i := 0; i < fleetVideos; i++ {
		s := spec
		s.Name = fmt.Sprintf("v%02d", i)
		s.Seed = mix(0, 20, int64(i))
		w, err := synth.Generate(s)
		if err != nil {
			return nil, err
		}
		out = append(out, corpusVideo{s.Name, q, w})
	}
	return out, nil
}

// fleetQueries lists the distinct top-k queries: every predicate subset
// of the q2 query repository-wide, and per video the full query and the
// action alone, each at K ∈ {1, 5, 15}.
func fleetQueries(corpus []corpusVideo) []topkQuery {
	q := corpus[0].query
	a := q.Action
	variants := []vaq.Query{q, {Action: a, Objects: q.Objects[:1]}, {Action: a, Objects: q.Objects[1:]}, {Action: a}}
	var out []topkQuery
	for _, k := range topKs {
		for _, v := range variants {
			out = append(out, topkQuery{query: v, k: k})
		}
		for _, v := range corpus {
			out = append(out, topkQuery{video: v.name, query: q, k: k}, topkQuery{video: v.name, query: vaq.Query{Action: a}, k: k})
		}
	}
	return out
}

func topkRequest(q topkQuery) api.TopKRequest {
	req := api.TopKRequest{Video: q.video, Action: string(q.query.Action), K: q.k}
	for _, o := range q.query.Objects {
		req.Objects = append(req.Objects, string(o))
	}
	return req
}

func topkEntries(res []vaq.TopKResult, video string) []api.TopKEntry {
	out := []api.TopKEntry{}
	for _, r := range res {
		out = append(out, api.TopKEntry{Video: video, Seq: api.Range{Lo: r.Seq.Lo, Hi: r.Seq.Hi}, Score: r.Score})
	}
	return out
}

// inProcessTopK answers a query on an on-disk repository in this
// process, in the wire shape. A repository-wide query fans out over
// the videos with eo's workers; with one worker it runs sequentially,
// and its work counters repeat exactly, which the parallel run's,
// exchanging bounds between workers as they go, do not.
func inProcessTopK(repo *vaq.Repository, q topkQuery, eo vaq.ExecOptions) ([]api.TopKEntry, vaq.TopKStats, error) {
	if !q.global() {
		res, st, err := repo.TopK(q.video, q.query, q.k)
		return topkEntries(res, ""), st, err
	}
	res, st, err := repo.TopKGlobalOpts(q.query, q.k, eo)
	out := []api.TopKEntry{}
	for _, r := range res {
		out = append(out, api.TopKEntry{Video: r.Video, Seq: api.Range{Lo: r.Seq.Lo, Hi: r.Seq.Hi}, Score: r.Score})
	}
	return out, st, err
}

// sessionOracle is one session workload with its in-process answer.
type sessionOracle struct {
	id    string
	scale float64
	seqs  string // JSON of the result ranges
	inv   int
	clips int
	gpuMS float64
}

// sessionWorkloads are the Table 1 sets the standing sessions run:
// one with two object predicates and two with one.
var sessionWorkloads = []string{"q1", "q5", "q9"}

// fleetSessions puts the session workloads in a seeded order and runs
// each through an in-process Stream exactly as vaqd builds it: same
// synthetic set, Mask R-CNN + I3D, SVAQD over the whole set. vaqd
// generates a session's set from its name and scale alone; the scale
// is not seeded, as it would only add seed-to-seed spread to the
// session figures.
func fleetSessions(seed int64) ([]sessionOracle, error) {
	var out []sessionOracle
	for _, i := range rand.New(rand.NewSource(mix(seed, 21))).Perm(len(sessionWorkloads)) {
		id := sessionWorkloads[i]
		scale := sessionScale
		qs, err := synth.YouTubeScaled(id, vaq.DefaultGeometry(), scale)
		if err != nil {
			return nil, err
		}
		meta := qs.World.Truth.Meta
		m := &detectMeter{}
		det, rec := simModels(qs.World.Scene(), m, 0)
		st, err := vaq.NewStreamQuery(qs.Query, det, rec, meta.Geom, vaq.StreamConfig{Dynamic: true, HorizonClips: meta.Clips()})
		if err != nil {
			return nil, err
		}
		seqs, err := st.Run(meta.Clips())
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(api.Ranges(seqs))
		if err != nil {
			return nil, err
		}
		out = append(out, sessionOracle{id: id, scale: scale, seqs: string(b), inv: st.Invocations(), clips: meta.Clips(), gpuMS: m.gpuMS()})
	}
	return out, nil
}

// fleet is one running deployment.
type fleet struct {
	dir      string
	corpus   []corpusVideo
	ing      *ingestResult
	shards   []*vaqdProc
	shardDir []string
	coord    *vaqdProc
	ring     *shard.Ring
}

func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, p := range f.shards {
		p.stop()
	}
	os.RemoveAll(f.dir)
}

func (f *fleet) coordURL(path string) string { return "http://" + f.coord.addr + path }

// setUpFleet ingests the corpus, writes one repository per shard
// (partitioned by the coordinator's own consistent-hash ring) plus the
// union, starts the processes and warms them with one pass over every
// distinct query and session workload.
func setUpFleet(o options, log *spanLog, sessions []sessionOracle) (*fleet, error) {
	dir, err := os.MkdirTemp(o.work, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()
	if f.corpus, err = fleetCorpus(); err != nil {
		return nil, err
	}
	if f.ing, err = ingestCorpus(f.corpus, filepath.Join(dir, "union"), log); err != nil {
		return nil, err
	}
	if f.ring, err = shard.NewRing(shardNames, 0); err != nil {
		return nil, err
	}
	names := make([]string, len(f.corpus))
	for i, v := range f.corpus {
		names[i] = v.name
	}
	parts := f.ring.Partition(names)
	var specs []string
	for _, s := range shardNames {
		sdir := filepath.Join(dir, s)
		repo, err := vaq.OpenRepository(sdir)
		if err != nil {
			return nil, err
		}
		for _, n := range parts[s] {
			if err := repo.Add(n, f.ing.mem[n]); err != nil {
				return nil, err
			}
		}
		args := []string{"-repo", sdir}
		if o.fault != "" {
			args = append(args, "-fault", o.fault)
		}
		p, err := startVaqd(o.vaqd, args...)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, p)
		f.shardDir = append(f.shardDir, sdir)
		specs = append(specs, s+"="+p.addr)
	}
	if f.coord, err = startVaqd(o.vaqd, "-coordinator", "-shards", strings.Join(specs, ",")); err != nil {
		return nil, err
	}
	for _, q := range fleetQueries(f.corpus) {
		if _, err := callJSON(http.MethodPost, f.coordURL("/v1/topk"), topkRequest(q), http.StatusOK, nil); err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", q, err)
		}
	}
	for _, s := range sessions {
		if _, _, _, err := f.runSession(s); err != nil {
			return nil, fmt.Errorf("warm-up session %s: %w", s.id, err)
		}
	}
	ok = true
	return f, nil
}

// runSession creates a session through the coordinator, long-polls it
// until done, reads its status and deletes it. It returns the final
// results, the status and the time from create to done.
func (f *fleet) runSession(s sessionOracle) (api.ResultsResponse, api.SessionInfo, time.Duration, error) {
	var (
		info api.SessionInfo
		res  api.ResultsResponse
	)
	start := time.Now()
	if _, err := callJSON(http.MethodPost, f.coordURL("/v1/sessions"),
		api.CreateSessionRequest{Workload: s.id, Scale: s.scale}, http.StatusCreated, &info); err != nil {
		return res, info, 0, err
	}
	path := fmt.Sprintf("/v1/sessions/%s/results?wait=50s&since=%d", info.ID, info.ClipsTotal)
	if _, err := callJSON(http.MethodGet, f.coordURL(path), nil, http.StatusOK, &res); err != nil {
		return res, info, 0, err
	}
	done := time.Since(start)
	if _, err := callJSON(http.MethodGet, f.coordURL("/v1/sessions/"+info.ID), nil, http.StatusOK, &info); err != nil {
		return res, info, done, err
	}
	if _, err := callJSON(http.MethodDelete, f.coordURL("/v1/sessions/"+info.ID), nil, http.StatusOK, nil); err != nil {
		return res, info, done, err
	}
	return res, info, done, nil
}

// fleetPhase is one window of the two clients.
type fleetPhase struct {
	topkLat   []sample // µs; class 0 = repository-wide, 1 = video-pinned
	sessLat   []sample // ms, one per session completed inside the window
	topkOps   int
	globalOps int
	sessOps   int
	failed    int
	failures  []string
	// decomposition pass
	serverOverhead []float64
	shardOverhead  []float64
	readDiff       []float64 // on-disk minus in-memory top-k, per video-pinned op
	memLat         []float64 // in-memory top-k, per video-pinned op
}

func (ph *fleetPhase) failf(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// legs returns the shards a query involves: every shard for a
// repository-wide query, the ring owner for a video-pinned one.
func (f *fleet) legs(q topkQuery) []int {
	if q.global() {
		return []int{0, 1, 2}
	}
	return []int{f.ring.OwnerIndex(q.video)}
}

// directLeg sends a query straight to one shard and runs it in-process
// on that shard's repository. ok is false when the shard owns none of
// the queried labels: it answers 400 and the coordinator merges it as
// no contribution.
func (f *fleet) directLeg(repo *vaq.Repository, s int, q topkQuery, eo vaq.ExecOptions) (direct, inproc time.Duration, st vaq.TopKStats, ok bool, err error) {
	t0 := time.Now()
	code, _, err := call(http.MethodPost, "http://"+f.shards[s].addr+"/v1/topk", topkRequest(q))
	direct = time.Since(t0)
	if err != nil {
		return
	}
	t1 := time.Now()
	_, st, ierr := inProcessTopK(repo, q, eo)
	inproc = time.Since(t1)
	if code != http.StatusOK {
		return direct, inproc, st, false, nil
	}
	return direct, inproc, st, true, ierr
}

// runFleetPhase drives the top-k client and the session client for the
// window. With a span log it records a span around every op. With the
// shards' repositories it is a decomposition pass: every top-k op is
// followed by the same query sent straight to each shard it involves
// and run in-process on that shard's repository (and, pinned to a
// video, over the VideoData kept from ingest), so the server, shard
// and table overheads can be taken apart. The top-k client still has
// one request in flight at a time, but the shards see the extra legs.
func runFleetPhase(f *fleet, qs []topkQuery, want []string, seq *opSequence, sess []sessionOracle, window time.Duration, log *spanLog, shardRepos []*vaq.Repository) (*fleetPhase, error) {
	ph := &fleetPhase{}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(window)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			i := seq.take()
			q := qs[i]
			t0 := time.Now()
			code, body, err := call(http.MethodPost, f.coordURL("/v1/topk"), topkRequest(q))
			d := time.Since(t0)
			if err != nil {
				errs[0] = err
				return
			}
			var resp api.TopKResponse
			got := ""
			if code == http.StatusOK && json.Unmarshal(body, &resp) == nil {
				b, _ := json.Marshal(resp.Results)
				got = string(b)
			}
			class := 1
			if q.global() {
				class = 0
			}
			mu.Lock()
			ph.topkOps++
			if q.global() {
				ph.globalOps++
			}
			ph.topkLat = append(ph.topkLat, sample{t0.Add(d).Sub(start).Seconds(), us(d), 0, i, class})
			if code != http.StatusOK || resp.Incomplete || got != want[i] {
				ph.failf("%v: status %d incomplete=%v: %s, oracle %s", q, code, resp.Incomplete, got, want[i])
			}
			mu.Unlock()
			if shardRepos == nil {
				log.add(0, "coord.topk", t0, d, map[string]int64{"query": int64(i)})
				continue
			}
			slowest := time.Duration(0)
			var kids []span
			for _, s := range f.legs(q) {
				t1 := time.Now()
				direct, inproc, _, ok, err := f.directLeg(shardRepos[s], s, q, vaq.ExecOptions{})
				if err != nil {
					errs[0] = err
					return
				}
				attrs := map[string]int64{"shard": int64(s)}
				kids = append(kids, span{Name: "server.topk", Start: t1, Dur: direct, Attrs: attrs},
					span{Name: "rvaq.topk", Start: t1.Add(direct), Dur: inproc, Attrs: attrs})
				if !ok {
					continue
				}
				slowest = max(slowest, direct)
				mu.Lock()
				ph.serverOverhead = append(ph.serverOverhead, us(direct-inproc))
				mu.Unlock()
				if q.global() {
					continue
				}
				t3 := time.Now()
				if _, _, err := vaq.TopKVideo(f.ing.mem[q.video], q.query, q.k); err != nil {
					errs[0] = err
					return
				}
				mem := time.Since(t3)
				kids = append(kids, span{Name: "rvaq.topk.mem", Start: t3, Dur: mem, Attrs: attrs})
				mu.Lock()
				ph.readDiff = append(ph.readDiff, us(inproc-mem))
				ph.memLat = append(ph.memLat, us(mem))
				mu.Unlock()
			}
			root := log.add(0, "fleet.topk", t0, time.Since(t0), map[string]int64{"query": int64(i)})
			log.add(root, "coord.topk", t0, d, nil)
			for _, k := range kids {
				log.add(root, k.Name, k.Start, k.Dur, k.Attrs)
			}
			mu.Lock()
			ph.shardOverhead = append(ph.shardOverhead, us(d-slowest))
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; time.Now().Before(deadline); n++ {
			si := n % len(sess)
			s := sess[si]
			t0 := time.Now()
			res, info, d, err := f.runSession(s)
			if err != nil {
				errs[1] = err
				return
			}
			log.add(0, "session", t0, d, map[string]int64{"clips": int64(res.ClipsProcessed)})
			got, _ := json.Marshal(res.Sequences)
			mu.Lock()
			ph.sessOps++
			if t0.Add(d).Before(deadline) {
				ph.sessLat = append(ph.sessLat, sample{t0.Add(d / 2).Sub(start).Seconds(), ms(d), 1, si, si})
			}
			if res.State != "done" || string(got) != s.seqs || info.Invocations != s.inv || res.ClipsProcessed != s.clips {
				ph.failf("session %s: state %s, %d clips, %d invocations, %s; oracle %d clips, %d invocations, %s",
					s.id, res.State, res.ClipsProcessed, info.Invocations, got, s.clips, s.inv, s.seqs)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// varzSum sums the named /varz lines over the given processes. A name
// that none of them reports is an error, not a zero: a renamed counter
// must not read as a plausible 0.
func varzSum(procs []*vaqdProc, names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	seen := map[string]bool{}
	for _, p := range procs {
		v, err := varz(p.addr)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			if x, ok := v[n]; ok {
				out[n] += x
				seen[n] = true
			}
		}
	}
	for _, n := range names {
		if !seen[n] {
			return nil, fmt.Errorf("/varz reports no %s", n)
		}
	}
	return out, nil
}

const (
	poolWaitCount = `vaq_stage_us_count{stage="pool_wait"}`
	poolWaitSum   = `vaq_stage_us_sum{stage="pool_wait"}`
)

var (
	inferHits    = []string{"vaq_infer_cache_hits", "vaq_infer_coalesced"}
	inferLookups = append([]string{"vaq_infer_cache_misses"}, inferHits...)
)

func runFleet(o options) (*report, error) {
	if o.vaqd == "" {
		return nil, fmt.Errorf("fleet needs -vaqd")
	}
	rep := newReport()
	sess, err := fleetSessions(o.seed)
	if err != nil {
		return nil, err
	}
	var log *spanLog
	if o.trace {
		log = &spanLog{}
	}
	f, release, setupS, err := medianSetup(fleetSetups, func() (*fleet, func(), error) {
		f, err := setUpFleet(o, log, sess)
		if err != nil {
			return nil, nil, err
		}
		return f, f.stop, nil
	})
	defer release()
	if err != nil {
		return nil, err
	}

	// Oracles: every distinct query once, in-process over the union.
	union, err := vaq.OpenRepository(filepath.Join(f.dir, "union"))
	if err != nil {
		return nil, err
	}
	qs := fleetQueries(f.corpus)
	want := make([]string, len(qs))
	for i, q := range qs {
		res, _, err := inProcessTopK(union, q, vaq.ExecOptions{})
		if err != nil {
			return nil, fmt.Errorf("oracle %v: %w", q, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		want[i] = string(b)
	}
	rep.notef("fleet: 3 shards + coordinator, %d videos (%d clips), %d distinct queries, sessions over %v at scale ~%g, window %v",
		len(f.corpus), f.ing.clips, len(qs), sessionWorkloads, sessionScale, o.window)

	phase := func(window time.Duration, log *spanLog, repos []*vaq.Repository) (*fleetPhase, error) {
		ph, err := runFleetPhase(f, qs, want, newOpSequence(qs, mix(o.seed, 23)), sess, window, log, repos)
		if err != nil {
			return nil, err
		}
		rep.attempted += ph.topkOps + ph.sessOps
		if ph.failed > 0 {
			rep.fail(ph.failed, "%v", ph.failures)
		}
		return ph, nil
	}
	if !o.trace {
		ph, err := phase(o.window, nil, nil)
		if err != nil {
			return nil, err
		}
		w := summarize(ph.topkLat, o.window)
		job, picked := fastJobs(ph.sessLat)
		jobClips, jobSec := 0, 0.0
		for _, j := range picked {
			jobClips += sess[j.kind].clips
			jobSec += j.lat / 1000
		}
		rep.notef(w.note("coordinator top-k latency", func(c int) string { return []string{"repository-wide", "video-pinned"}[c] }))
		rep.notef("top-k ops: %d, %.1f%% of them repository-wide", ph.topkOps, 100*float64(ph.globalOps)/float64(ph.topkOps))
		rep.notef("sessions completed inside the window: %d, %d of them in the fast share", len(ph.sessLat), len(picked))
		gpu, clips := 0.0, 0
		for _, s := range sess {
			gpu += s.gpuMS
			clips += s.clips
		}
		rss := 0.0
		for _, p := range append([]*vaqdProc{f.coord}, f.shards...) {
			r, err := p.peakRSS()
			if err != nil {
				return nil, err
			}
			rss += r
		}
		rep.metrics["op_p50_us"] = w.p50
		rep.metrics["op_p99_us"] = w.p99
		rep.metrics["ops_per_s"] = w.rate
		rep.metrics["clips_per_s"] = float64(jobClips) / jobSec
		rep.metrics["job_p50_ms"] = job
		rep.metrics["gpu_ms_per_clip"] = gpu / float64(clips)
		rep.metrics["setup_s"] = setupS
		rep.metrics["peak_rss_mb"] = rss
		return rep, nil
	}

	zeroLayers(rep)
	var shardRepos []*vaq.Repository
	var opens []float64
	for _, d := range f.shardDir {
		t0 := time.Now()
		r, err := vaq.OpenRepository(d)
		if err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(t0)))
		shardRepos = append(shardRepos, r)
	}

	// Four passes of the two clients exactly as in the untraced run,
	// spans off, on, on, off: bench.trace_overhead compares the same
	// client work with and without recording, in an order that cancels
	// a steady drift of the machine's speed. The shard counters are
	// read across the four.
	pass := o.window / 6
	v0, err := varzSum(f.shards, append(inferLookups, poolWaitCount, poolWaitSum)...)
	if err != nil {
		return nil, err
	}
	var plain, spanned []*fleetPhase
	for _, l := range []*spanLog{nil, log, log, nil} {
		ph, err := phase(pass, l, nil)
		if err != nil {
			return nil, err
		}
		if l == nil {
			plain = append(plain, ph)
		} else {
			spanned = append(spanned, ph)
		}
	}
	v1, err := varzSum(f.shards, append(inferLookups, poolWaitCount, poolWaitSum)...)
	if err != nil {
		return nil, err
	}
	delta := func(names ...string) float64 {
		d := 0.0
		for _, n := range names {
			d += v1[n] - v0[n]
		}
		return d
	}
	lookups, waits := delta(inferLookups...), delta(poolWaitCount)
	if lookups <= 0 || waits <= 0 {
		return nil, fmt.Errorf("shards recorded %v inference lookups and %v pool waits in the traced passes", lookups, waits)
	}

	// The decomposition pass, on its own because its extra legs load
	// the shards: the server, shard and table overheads.
	dec, err := phase(o.window-4*pass, log, shardRepos)
	if err != nil {
		return nil, err
	}

	// Quiet pass, one client: one round of the distinct queries for the
	// exact per-query counts — the coordinator's shard calls and response
	// bytes, and the rvaq counters of the legs run in-process,
	// sequentially, on the shard repositories — then one session of each
	// workload for its invocations per clip.
	cv0, err := varzSum([]*vaqdProc{f.coord}, "vaq_shard_calls")
	if err != nil {
		return nil, err
	}
	var rnd, srt, iter, cand, bytes float64
	for _, q := range qs {
		var resp api.TopKResponse
		if _, err := callJSON(http.MethodPost, f.coordURL("/v1/topk"), topkRequest(q), http.StatusOK, &resp); err != nil {
			return nil, err
		}
		resp.RuntimeUS, resp.CPURuntimeUS = 0, 0
		norm, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		bytes += float64(len(norm))
		for _, s := range f.legs(q) {
			_, _, st, ok, err := f.directLeg(shardRepos[s], s, q, vaq.ExecOptions{Workers: 1})
			if err != nil {
				return nil, fmt.Errorf("%v on %s: %w", q, shardNames[s], err)
			}
			if ok {
				rnd += float64(st.Accesses.Random)
				srt += float64(st.Accesses.Sorted + st.Accesses.Reverse)
				iter += float64(st.Iterations)
				cand += float64(st.Candidates)
			}
		}
	}
	cv1, err := varzSum([]*vaqdProc{f.coord}, "vaq_shard_calls")
	if err != nil {
		return nil, err
	}
	var sessInv []float64
	for _, s := range sess {
		res, info, _, err := f.runSession(s)
		if err != nil {
			return nil, err
		}
		got, _ := json.Marshal(res.Sequences)
		if res.State != "done" || string(got) != s.seqs || info.Invocations != s.inv || info.ClipsProcessed != s.clips {
			rep.fail(1, "session %s: state %s, %d invocations over %d clips, %s; oracle %d over %d, %s",
				s.id, res.State, info.Invocations, info.ClipsProcessed, got, s.inv, s.clips, s.seqs)
		}
		sessInv = append(sessInv, float64(info.Invocations)/float64(max(1, info.ClipsProcessed)))
	}
	rep.attempted += len(sess)
	rate := func(phs []*fleetPhase) float64 {
		sum := 0.0
		for _, ph := range phs {
			sum += summarize(ph.topkLat, pass).rate
		}
		return sum / float64(len(phs))
	}
	n := float64(len(qs))
	clips := float64(f.ing.clips)
	rep.metrics["detect.invocations_per_clip"] = float64(f.ing.inv) / clips
	rep.metrics["detect.us_per_clip"] = us(f.ing.detectBusy) / clips
	rep.metrics["ingest.infer_us_per_clip"] = us(f.ing.infer) / clips
	rep.metrics["ingest.stats_us_per_clip"] = us(f.ing.stats) / clips
	rep.metrics["tables.write_us_per_clip"] = us(f.ing.write) / clips
	rep.metrics["tables.open_ms"] = median(opens)
	rep.metrics["tables.read_us_per_query"] = median(dec.readDiff)
	rep.metrics["rvaq.mem_us_per_query_p50"] = median(dec.memLat)
	rep.metrics["rvaq.random_accesses_per_query"] = rnd / n
	rep.metrics["rvaq.sorted_accesses_per_query"] = srt / n
	rep.metrics["rvaq.iterations_per_query"] = iter / n
	rep.metrics["rvaq.candidates_per_query"] = cand / n
	rep.metrics["server.overhead_us_p50"] = median(dec.serverOverhead)
	rep.metrics["api.bytes_per_topk"] = bytes / n
	rep.metrics["shard.overhead_us_p50"] = median(dec.shardOverhead)
	rep.metrics["shard.calls_per_topk"] = (cv1["vaq_shard_calls"] - cv0["vaq_shard_calls"]) / n
	rep.metrics["pool.wait_us_mean"] = delta(poolWaitSum) / waits
	rep.metrics["infer.hit_share"] = delta(inferHits...) / lookups
	rep.metrics["session.invocations_per_clip"] = mean(sessInv)
	rep.metrics["bench.trace_overhead"] = rate(spanned) / rate(plain)
	path, err := log.write(o.work, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	rep.notef("spans written to %s", path)
	return rep, nil
}
