package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vaq"
	"vaq/internal/annot"
	"vaq/internal/metrics"
	"vaq/internal/synth"
)

// The online workload: two in-process SVAQD feeds stepped back to back
// through Stream.ProcessClip, each a closed loop over the Table 1
// YouTube sets (Mask R-CNN + I3D simulation, drift as generated).
// svaq, scanstat and detect do nearly all the work; tables, rvaq, HTTP
// and infer do none.

const (
	// onlineClips is the length every set is cut to (~17 minutes of
	// video), so set runs are comparable jobs; the seed jitters each
	// set's length by ±5% around it.
	onlineClips = 600
	// onlineF1Floor is the sequence-level F1 (η = 0.5) each feed's
	// sequences must reach against ground truth, pooled over the set
	// runs of the feed (a single short set may hold one true sequence).
	onlineF1Floor = 0.6
	// setupSpan is how long the set-up is repeated for setup_s.
	setupSpan = 3 * time.Second
	warmUp    = time.Second
)

// onlineSet is one generated Table 1 set with its query and ground truth.
type onlineSet struct {
	id    string
	query vaq.Query
	world *synth.World
	truth vaq.Sequences
	clips int
}

// makeOnlineSets generates all twelve Table 1 sets from the seed.
func makeOnlineSets(seed int64) ([]*onlineSet, error) {
	var sets []*onlineSet
	for i, id := range synth.YouTubeIDs() {
		spec, q, err := synth.YouTubeSpec(id, vaq.DefaultGeometry())
		if err != nil {
			return nil, err
		}
		jitter := 0.95 + 0.1*float64(mix(seed, 1, int64(i))%1000)/1000
		spec.Frames = int(onlineClips*jitter) * spec.Geom.ClipLen()
		spec.Seed = mix(seed, 2, int64(i))
		w, err := synth.Generate(spec)
		if err != nil {
			return nil, err
		}
		truth, err := w.Truth.GroundTruthClips(q)
		if err != nil {
			return nil, err
		}
		sets = append(sets, &onlineSet{id: id, query: q, world: w, truth: truth, clips: w.Truth.Meta.Clips()})
	}
	return sets, nil
}

// feedOrder is the seeded order both feeds cycle through: sets with two
// object predicates alternate with sets with one, so every stretch of
// the cycle carries both kinds of per-clip work.
func feedOrder(sets []*onlineSet, seed int64) []int {
	var two, one []int
	for i, s := range sets {
		if len(s.query.Objects) > 1 {
			two = append(two, i)
		} else {
			one = append(one, i)
		}
	}
	rng := rand.New(rand.NewSource(mix(seed, 3)))
	rng.Shuffle(len(two), func(a, b int) { two[a], two[b] = two[b], two[a] })
	rng.Shuffle(len(one), func(a, b int) { one[a], one[b] = one[b], one[a] })
	var order []int
	for i := 0; i < max(len(two), len(one)); i++ {
		if i < len(two) {
			order = append(order, two[i])
		}
		if i < len(one) {
			order = append(order, one[i])
		}
	}
	return order
}

// setRun is one pass of a fresh Stream over a whole set.
type setRun struct {
	set        int
	feed       int // -1 for replays after the window
	seqs       vaq.Sequences
	clips      int
	timedClips int // clips processed inside the window
	inv        int
	gpuMS      float64
	recomputes int           // clips after which a critical value changed (traced)
	dur        time.Duration // first clip to last, when all ran inside the window
	mid        float64       // seconds from the window start to the run's midpoint
}

// onlinePhase is one window of both feeds plus the oracle pass.
type onlinePhase struct {
	lat        []sample  // per-clip ProcessClip latency (µs) inside the window
	steady     []float64 // traced: latency of clips that recomputed no critical value
	recompute  []float64 // traced: latency of clips that did
	detectBusy time.Duration
	runs       []setRun
	attempted  int
	failed     int
	failures   []string
	score      feedScore
}

// feedScore pools each feed's sequence-level counts against ground
// truth over its set runs. The F1 floor is checked once per benchmark
// run over every phase: a short phase may hold a single set run, and a
// short set may hold a single true sequence.
type feedScore struct {
	prf   [2]metrics.PRF
	clips [2]int // timed clips of the feed's set runs
}

func (s *feedScore) add(o feedScore) {
	for f := range s.prf {
		s.prf[f].TP += o.prf[f].TP
		s.prf[f].FP += o.prf[f].FP
		s.prf[f].FN += o.prf[f].FN
		s.clips[f] += o.clips[f]
	}
}

// check counts the timed clips of a feed below the F1 floor as failed.
func (s *feedScore) check(rep *report) {
	var f1 [2]float64
	for f, p := range s.prf {
		if p.TP > 0 {
			f1[f] = 2 * float64(p.TP) / float64(2*p.TP+p.FP+p.FN)
		}
		if f1[f] < onlineF1Floor {
			rep.fail(s.clips[f], "online feed %d: F1 %.3f below %.2f", f, f1[f], onlineF1Floor)
		}
	}
	rep.notef("online feed F1 (pooled over their set runs): %.3f, %.3f", f1[0], f1[1])
	rep.failed = min(rep.failed, rep.attempted)
}

// runSet streams one set through a fresh Stream. Clips processed before
// the deadline are timed; the rest of the set still runs, untimed, so
// every run's answer reaches the oracle.
func runSet(sets []*onlineSet, si, feed int, windowStart, deadline time.Time, o options, log *spanLog, ph *onlinePhase, mu *sync.Mutex) (setRun, error) {
	s := sets[si]
	m := &detectMeter{timing: log != nil}
	det, rec := simModels(s.world.Scene(), m, o.detectDelay)
	st, err := vaq.NewStreamQuery(s.query, det, rec, s.world.Truth.Meta.Geom,
		vaq.StreamConfig{Dynamic: true, HorizonClips: s.clips})
	if err != nil {
		return setRun{}, err
	}
	run := setRun{set: si, feed: feed, clips: s.clips}
	lat := make([]sample, 0, s.clips)
	var steady, recompute []float64
	var prevObj map[annot.Label]int
	var prevAct int
	var timedBusy time.Duration
	if log != nil {
		prevObj, prevAct = st.CriticalValues()
	}
	start := time.Now()
	for c := 0; c < s.clips; c++ {
		t0 := time.Now()
		timed := t0.Before(deadline)
		busy0 := m.busy.Load()
		calls0 := m.calls.Load()
		if _, err := st.ProcessClip(c); err != nil {
			return setRun{}, fmt.Errorf("%s clip %d: %w", s.id, c, err)
		}
		d := time.Since(t0)
		if !timed {
			continue
		}
		run.timedClips++
		lat = append(lat, sample{t0.Add(d).Sub(windowStart).Seconds(), us(d), feed, si, si})
		if log == nil {
			continue
		}
		obj, act := st.CriticalValues()
		changed := act != prevAct || !sameCritical(obj, prevObj)
		prevObj, prevAct = obj, act
		flag := int64(0)
		if changed {
			run.recomputes++
			flag = 1
			recompute = append(recompute, us(d))
		} else {
			steady = append(steady, us(d))
		}
		id := log.add(0, "svaq.clip", t0, d, map[string]int64{"set": int64(si), "clip": int64(c), "recompute": flag})
		busy := time.Duration(m.busy.Load() - busy0)
		timedBusy += busy
		log.addFolded(id, "detect", t0, busy, m.calls.Load()-calls0)
	}
	if run.timedClips == s.clips {
		run.dur = time.Since(start)
		run.mid = start.Add(run.dur / 2).Sub(windowStart).Seconds()
	}
	run.seqs = st.Results()
	run.inv = st.Invocations()
	run.gpuMS = m.gpuMS()
	mu.Lock()
	ph.lat = append(ph.lat, lat...)
	ph.steady = append(ph.steady, steady...)
	ph.recompute = append(ph.recompute, recompute...)
	ph.detectBusy += timedBusy
	mu.Unlock()
	return run, nil
}

func sameCritical(a, b map[annot.Label]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runOnlinePhase runs both feeds for the window — feed 0 from the start
// of the cycle, feed 1 from its middle — then checks every set run:
// its F1 against ground truth, and byte-identical sequences across all
// runs of the set. Sets that ran fewer than twice in the window are
// replayed through fresh streams after it.
func runOnlinePhase(sets []*onlineSet, order []int, window time.Duration, o options, log *spanLog) (*onlinePhase, error) {
	ph := &onlinePhase{}
	var mu sync.Mutex
	windowStart := time.Now()
	deadline := windowStart.Add(window)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for pos := f * len(order) / 2; time.Now().Before(deadline); pos++ {
				run, err := runSet(sets, order[pos%len(order)], f, windowStart, deadline, o, log, ph, &mu)
				if err != nil {
					errs[f] = err
					return
				}
				mu.Lock()
				ph.runs = append(ph.runs, run)
				mu.Unlock()
			}
		}(f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	bySet := map[int][]setRun{}
	for _, r := range ph.runs {
		bySet[r.set] = append(bySet[r.set], r)
		ph.attempted += r.timedClips
		p := metrics.SequenceF1(r.seqs, sets[r.set].truth, metrics.DefaultIOUThreshold)
		ph.score.prf[r.feed].TP += p.TP
		ph.score.prf[r.feed].FP += p.FP
		ph.score.prf[r.feed].FN += p.FN
		ph.score.clips[r.feed] += r.timedClips
	}
	for si := range sets {
		for len(bySet[si]) < 2 {
			r, err := runSet(sets, si, -1, time.Time{}, time.Time{}, o, nil, &onlinePhase{}, &mu)
			if err != nil {
				return nil, err
			}
			bySet[si] = append(bySet[si], r)
		}
		runs := bySet[si]
		ref, err := json.Marshal(runs[0].seqs)
		if err != nil {
			return nil, err
		}
		bad := ""
		for _, r := range runs[1:] {
			got, err := json.Marshal(r.seqs)
			if err != nil {
				return nil, err
			}
			if string(got) != string(ref) || r.inv != runs[0].inv {
				bad = "replay through a fresh Stream diverged"
			}
		}
		if bad != "" {
			n := 0
			for _, r := range runs {
				n += r.timedClips
			}
			ph.failed += n
			ph.failures = append(ph.failures, fmt.Sprintf("online set %s: %s", sets[si].id, bad))
		}
	}
	ph.failed = min(ph.failed, ph.attempted)
	ph.runs = ph.runs[:0]
	for si := range sets {
		ph.runs = append(ph.runs, bySet[si]...)
	}
	return ph, nil
}

// firstRuns returns one run per set, in set order: the basis of the
// deterministic per-clip counts.
func firstRuns(ph *onlinePhase, nsets int) []setRun {
	out := make([]setRun, nsets)
	seen := make([]bool, nsets)
	for _, r := range ph.runs {
		if !seen[r.set] {
			out[r.set], seen[r.set] = r, true
		}
	}
	return out
}

func runOnline(o options) (*report, error) {
	rep := newReport()
	var sets []*onlineSet
	setupS, err := fastSetup(setupSpan, func() error {
		var err error
		sets, err = makeOnlineSets(o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	order := feedOrder(sets, o.seed)
	var score feedScore
	total := 0
	for _, s := range sets {
		total += s.clips
	}
	rep.notef("online: %d Table 1 sets, %d clips per cycle, 2 feeds, window %v", len(sets), total, o.window)

	if !o.trace {
		// peak_rss_mb is read after the set-up and a warm-up of both
		// feeds, before the window: what the window adds is the
		// benchmark's own buffer of samples.
		warm, err := runOnlinePhase(sets, order, warmUp, o, nil)
		if err != nil {
			return nil, err
		}
		absorb(rep, &score, warm)
		rss, err := vmHWM("self")
		if err != nil {
			return nil, err
		}
		ph, err := runOnlinePhase(sets, order, o.window, o, nil)
		if err != nil {
			return nil, err
		}
		absorb(rep, &score, ph)
		var jobs []sample
		for _, r := range ph.runs {
			if r.dur > 0 {
				jobs = append(jobs, sample{r.mid, ms(r.dur), r.feed, r.set, r.set})
			}
		}
		gpu, clips := 0.0, 0
		for _, r := range firstRuns(ph, len(sets)) {
			gpu += r.gpuMS
			clips += r.clips
		}
		w := summarize(ph.lat, o.window)
		job, picked := fastJobs(jobs)
		jobClips, jobSec := 0, 0.0
		for _, j := range picked {
			jobClips += sets[j.kind].clips
			jobSec += j.lat / 1000
		}
		rep.notef(w.note("ProcessClip latency", func(c int) string { return sets[c].id }))
		rep.notef("set runs completed inside the window: %d, %d of them in the fast share", len(jobs), len(picked))
		rep.metrics["op_p50_us"] = w.p50
		rep.metrics["op_p99_us"] = w.p99
		rep.metrics["ops_per_s"] = w.rate
		rep.metrics["clips_per_s"] = 2 * float64(jobClips) / jobSec
		rep.metrics["job_p50_ms"] = job
		rep.metrics["gpu_ms_per_clip"] = gpu / float64(clips)
		rep.metrics["setup_s"] = setupS
		rep.metrics["peak_rss_mb"] = rss
		score.check(rep)
		return rep, nil
	}

	// Four quarters, untraced, traced, traced, untraced: the same feeds
	// with spans off and on, in an order that cancels a steady drift of
	// the machine's speed out of bench.trace_overhead.
	zeroLayers(rep)
	quarter := o.window / 4
	log := &spanLog{}
	var plain, traced []*onlinePhase
	for _, l := range []*spanLog{nil, log, log, nil} {
		ph, err := runOnlinePhase(sets, order, quarter, o, l)
		if err != nil {
			return nil, err
		}
		absorb(rep, &score, ph)
		if l == nil {
			plain = append(plain, ph)
		} else {
			traced = append(traced, ph)
		}
	}
	inv, clips := 0, 0
	for _, r := range firstRuns(traced[0], len(sets)) {
		inv += r.inv
		clips += r.clips
	}
	timed, recomputes := 0, 0
	var detectBusy time.Duration
	var steady, recompute []float64
	for _, ph := range traced {
		timed += len(ph.lat)
		detectBusy += ph.detectBusy
		steady = append(steady, ph.steady...)
		recompute = append(recompute, ph.recompute...)
		for _, r := range ph.runs {
			if r.timedClips > 0 {
				recomputes += r.recomputes
			}
		}
	}
	var self []float64
	for _, d := range log.selfTimes("svaq.clip") {
		self = append(self, us(d))
	}
	rate := func(phs []*onlinePhase) float64 {
		sum := 0.0
		for _, ph := range phs {
			sum += summarize(ph.lat, quarter).rate
		}
		return sum / float64(len(phs))
	}
	rep.metrics["detect.invocations_per_clip"] = float64(inv) / float64(clips)
	rep.metrics["detect.us_per_clip"] = us(detectBusy) / float64(timed)
	rep.metrics["svaq.self_us_per_clip"] = mean(self)
	rep.metrics["scanstat.recompute_clip_share"] = float64(recomputes) / float64(timed)
	rep.metrics["scanstat.recompute_clip_us_p50"] = median(recompute)
	rep.metrics["svaq.steady_clip_us_p50"] = median(steady)
	rep.metrics["bench.trace_overhead"] = rate(traced) / rate(plain)
	path, err := log.write(o.work, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	rep.notef("spans written to %s", path)
	score.check(rep)
	return rep, nil
}

// absorb adds a phase's op counts, replay failures and feed scores to
// the run's.
func absorb(rep *report, score *feedScore, ph *onlinePhase) {
	rep.attempted += ph.attempted
	score.add(ph.score)
	if ph.failed > 0 {
		rep.fail(ph.failed, "%v", ph.failures)
	}
}

// zeroLayers reports every per-layer metric as 0 before a workload
// fills in the layers it exercises.
func zeroLayers(rep *report) {
	for _, d := range perLayer {
		rep.metrics[d.name] = 0
	}
}
