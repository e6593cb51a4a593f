// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the system only through its public functions
// and the vaqd HTTP API, times the calls into each layer from its own
// code, checks every answer against an oracle, and prints one JSON
// result line:
//
//	perfbench -workload online|fleet -seed N -seconds S -trace 0|1
//
// With -trace 0 the line carries the end-to-end metrics (measured with
// tracing off); with -trace 1 it carries the per-layer metrics, taken
// from a traced run that records spans around each layer call in
// memory and writes them out at the end. perfbench/run.sh builds this
// program and cmd/vaqd from source and runs it from the repository
// root; BENCHMARK.json at the root lists the workloads and metrics.
//
// Every workload reports every metric. The end-to-end metrics name
// roles that each workload fills with its own operations:
//
//	metric            online                           fleet
//	op_p50_us/p99_us  one ProcessClip, per set         one coordinator /v1/topk, per
//	                                                   class (repository-wide, pinned)
//	ops_per_s         ProcessClip calls/s, both feeds  top-k/s
//	clips_per_s       clips/s of whole set runs, per   session clips/s of whole
//	                  set, times the two feeds         sessions
//	job_p50_ms        one set run, first clip to last  one session, create to done
//	gpu_ms_per_clip   modeled detector cost of the clips (invocations × Profile.Cost)
//	setup_s           median of repeated set-ups: scene generation; for fleet also
//	                  the partitioned ingest, process start and warm-up
//	peak_rss_mb       VmHWM of this process after set-up and a warm-up of the
//	                  feeds; for fleet summed over the vaqd processes
//
// Timed figures are taken in the machine's fast state (see sliceWidth).
// A percentile over a mix of classes of op is the geometric mean of the
// per-class percentiles, and a job figure the geometric mean over kinds
// of job, so neither moves with the mix. ops_per_s counts ops as they
// come; clips_per_s weighs every set (every session workload) alike.
//
// Per-layer metrics of a layer a workload does not exercise read 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric: its name and unit as BENCHMARK.json
// lists them.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of a -trace 0 run, in report order.
var endToEnd = []metricDef{
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"ops_per_s", "1/s"},
	{"clips_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"gpu_ms_per_clip", "ms/clip"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a -trace 1 run, in report order.
var perLayer = []metricDef{
	{"detect.invocations_per_clip", "count"},
	{"detect.us_per_clip", "us"},
	{"svaq.self_us_per_clip", "us"},
	{"scanstat.recompute_clip_share", "ratio"},
	{"scanstat.recompute_clip_us_p50", "us"},
	{"svaq.steady_clip_us_p50", "us"},
	{"ingest.infer_us_per_clip", "us"},
	{"ingest.stats_us_per_clip", "us"},
	{"tables.write_us_per_clip", "us"},
	{"tables.open_ms", "ms"},
	{"tables.read_us_per_query", "us"},
	{"rvaq.random_accesses_per_query", "count"},
	{"rvaq.sorted_accesses_per_query", "count"},
	{"rvaq.iterations_per_query", "count"},
	{"rvaq.candidates_per_query", "count"},
	{"rvaq.mem_us_per_query_p50", "us"},
	{"server.overhead_us_p50", "us"},
	{"api.bytes_per_topk", "count"},
	{"shard.overhead_us_p50", "us"},
	{"shard.calls_per_topk", "count"},
	{"pool.wait_us_mean", "us"},
	{"infer.hit_share", "ratio"},
	{"session.invocations_per_clip", "count"},
	{"bench.trace_overhead", "ratio"},
}

// options is one benchmark run's configuration. The last two fields
// are hooks for the sensitivity tests; the command line leaves them
// at their zero values.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	vaqd     string // vaqd binary (fleet)
	work     string // scratch directory for repositories and span dumps

	detectDelay time.Duration // busy-wait added to every detector invocation (online)
	fault       string        // vaqd -fault schedule for the fleet shards
}

// report is what a workload run hands back: op counts, the metrics of
// the run's mode, and human-readable notes printed before the result.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed ops and records why.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.notef("FAILED: "+format, args...)
}

var workloads = map[string]func(options) (*report, error){
	"online": runOnline,
	"fleet":  runFleet,
}

func main() {
	var (
		o       options
		seed    = flag.String("seed", "", "workload seed (required)")
		seconds = flag.Float64("seconds", 10, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.StringVar(&o.workload, "workload", "", "online or fleet")
	flag.StringVar(&o.vaqd, "vaqd", "", "path to the vaqd binary (fleet)")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()

	run, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q (want online or fleet)", o.workload))
	}
	if *seed == "" {
		fatal(errors.New("-seed is required"))
	}
	s, err := strconv.ParseInt(*seed, 10, 64)
	if err != nil {
		fatal(fmt.Errorf("-seed: %v", err))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(errors.New("-seconds must be positive and -trace 0 or 1"))
	}
	o.seed, o.window, o.trace = s, time.Duration(*seconds*float64(time.Second)), *traced == 1
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}

	rep, err := run(o)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	line, err := resultLine(rep, defs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// resultLine renders the final JSON object. A metric missing from the
// report is a bug in the workload, not a zero.
func resultLine(rep *report, defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("workload did not report %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s is %v", d.name, v)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// ---- statistics ----

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted (it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one timed op or job: when it ended, in seconds from the
// start of its window, its latency, the closed loop (stream) that ran
// it, its kind (ops of one kind do the same work) and its class
// (figures are computed per class, see geomean).
type sample struct {
	at, lat             float64
	stream, kind, class int
}

// The machines the benchmark runs on share their CPUs with other
// tenants: the speed of a CPU-bound loop on each vCPU flips on its own
// between two levels about 1.8× apart (a fixed Lgamma loop on two
// threads of a 2-vCPU host: 45 or 82 µs per call), and a thread's share
// of fast time over 10 s ranges from none to 60%. A median over a
// window lands on whichever level held longer, and a fixed share of the
// fastest time takes in slow time whenever the fast share falls below
// it, so runs minutes apart disagree by up to that factor. Every timed
// figure is therefore taken in the fast state, found by its level, not
// its share. Each stream's part of the window is cut into sliceWidth
// cells; a cell's speed is the median over its ops of the op's latency
// over the median latency of its kind in the whole window, so it does
// not depend on which ops the cell holds; the stream's fast level is
// the floorQuantile of its cell speeds; and the figures are computed
// over the ops of the cells within fastBand of that level. A change
// that makes an op slower makes it slower in either state, so the
// figures move with it. The fast level itself drifts too, by up to
// 1.3× over tens of minutes; no reading inside one run removes that.
const (
	sliceWidth    = 250 * time.Millisecond
	floorQuantile = 0.02
	fastBand      = 1.25
)

// fastCells is a window's cells, ranked by speed per stream.
type fastCells struct {
	width float64           // seconds per cell
	speed map[int][]float64 // per stream, per slice; +Inf for a cell without ops
	limit map[int]float64   // per stream, the slowest speed that counts as fast
	n     map[int]int       // per stream, fast cells
}

func rankCells(xs []sample, window time.Duration) fastCells {
	slices := max(1, int(math.Round(window.Seconds()/sliceWidth.Seconds())))
	f := fastCells{width: window.Seconds() / float64(slices), speed: map[int][]float64{}, limit: map[int]float64{}, n: map[int]int{}}
	byKind := map[int][]float64{}
	for _, x := range xs {
		byKind[x.kind] = append(byKind[x.kind], x.lat)
	}
	kindMed := map[int]float64{}
	for k, v := range byKind {
		kindMed[k] = median(v)
	}
	ratios := map[int][][]float64{}
	for _, x := range xs {
		if ratios[x.stream] == nil {
			ratios[x.stream] = make([][]float64, slices)
		}
		if m := kindMed[x.kind]; m > 0 {
			i := f.slice(x.at, slices)
			ratios[x.stream][i] = append(ratios[x.stream][i], x.lat/m)
		}
	}
	for st, rs := range ratios {
		speed := make([]float64, slices)
		var seen []float64
		for i, r := range rs {
			speed[i] = math.Inf(1)
			if len(r) > 0 {
				speed[i] = median(r)
				seen = append(seen, speed[i])
			}
		}
		f.speed[st] = speed
		f.limit[st] = fastBand * quantile(seen, floorQuantile)
		for _, v := range speed {
			if v <= f.limit[st] {
				f.n[st]++
			}
		}
	}
	return f
}

func (f fastCells) slice(at float64, slices int) int {
	return min(slices-1, max(0, int(at/f.width)))
}

func (f fastCells) fast(x sample) bool {
	speed := f.speed[x.stream]
	return len(speed) > 0 && speed[f.slice(x.at, len(speed))] <= f.limit[x.stream]
}

// classQuantiles returns the q-quantile of each class's latencies.
func classQuantiles(xs []sample, q float64) map[int]float64 {
	byClass := map[int][]float64{}
	for _, x := range xs {
		byClass[x.class] = append(byClass[x.class], x.lat)
	}
	out := map[int]float64{}
	for c, v := range byClass {
		out[c] = quantile(v, q)
	}
	return out
}

// geomean is the geometric mean of a class → value map. Figures over a
// mix of classes are the geometric mean of the per-class figures, so
// they do not depend on the share of each class among the ops: a median
// over a mix of a cheap and a dear class would sit on the boundary
// between their costs and jump with the mix.
func geomean(m map[int]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range m {
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(m)))
}

// windowStats summarises the ops of one measurement window, taken over
// the fast cells of its streams. rate is the ops per second of all
// streams together, each in its fast state.
type windowStats struct {
	p50, p99, rate      float64
	ops, fastOps, cells int
	classP50            map[int]float64
	classOps            map[int]int
}

func summarize(xs []sample, window time.Duration) windowStats {
	f := rankCells(xs, window)
	var in []sample
	perStream := map[int]int{}
	for _, x := range xs {
		if f.fast(x) {
			in = append(in, x)
			perStream[x.stream]++
		}
	}
	w := windowStats{ops: len(xs), fastOps: len(in), classP50: classQuantiles(in, 0.5), classOps: map[int]int{}}
	w.p50 = geomean(w.classP50)
	w.p99 = geomean(classQuantiles(in, 0.99))
	for st, n := range perStream {
		w.rate += float64(n) / (float64(f.n[st]) * f.width)
		w.cells += f.n[st]
	}
	for _, x := range in {
		w.classOps[x.class]++
	}
	return w
}

// note describes the window; names labels its classes.
func (w windowStats) note(what string, names func(class int) string) string {
	classes := make([]int, 0, len(w.classP50))
	for c := range w.classP50 {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	var parts []string
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s %.1f (%d)", names(c), w.classP50[c], w.classOps[c]))
	}
	return fmt.Sprintf("%s: %d samples, %d of them in the %d fastest cells of %v; per class p50 µs (samples): %s",
		what, w.ops, w.fastOps, w.cells, sliceWidth, strings.Join(parts, ", "))
}

// fastJobs takes, per kind, the jobs within fastBand of the kind's
// fastest, and returns the geometric mean over kinds of the median
// duration of those jobs, and the jobs it took. A job spans several
// cells, so it is ranked by its own duration against the other jobs of
// its kind: the same fast-state reading as for ops.
func fastJobs(jobs []sample) (float64, []sample) {
	byKind := map[int][]sample{}
	for _, j := range jobs {
		byKind[j.kind] = append(byKind[j.kind], j)
	}
	if len(byKind) == 0 {
		return 0, nil
	}
	var picked []sample
	logSum := 0.0
	for _, js := range byKind {
		sort.Slice(js, func(a, b int) bool { return js[a].lat < js[b].lat })
		n := 1
		for n < len(js) && js[n].lat <= fastBand*js[0].lat {
			n++
		}
		js = js[:n]
		logSum += math.Log(js[n/2].lat)
		picked = append(picked, js...)
	}
	return math.Exp(logSum / float64(len(byKind))), picked
}

// ---- process memory ----

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// ---- seeding ----

// mix derives an independent 63-bit seed from a base seed and labels,
// so every scene and query mix follows from -seed alone.
func mix(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = splitmix(x)
	}
	return int64(splitmix(x) >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fastSetup repeats a set-up back to back for span, at least five
// times, and returns the median set-up time in seconds in the
// machine's fast state, taken as for the ops of a window.
func fastSetup(span time.Duration, setup func() error) (float64, error) {
	var xs []sample
	start := time.Now()
	for len(xs) < 5 || time.Since(start) < span {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		xs = append(xs, sample{t0.Add(d).Sub(start).Seconds(), d.Seconds(), 0, 0, 0})
	}
	return summarize(xs, time.Since(start)).p50, nil
}

// medianSetup runs setup n times and returns the last run's result,
// its release function and the median wall time; every earlier result
// is released before the next set-up starts.
func medianSetup[T any](n int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var (
		last    T
		release = func() {}
		times   []float64
	)
	for i := 0; i < n; i++ {
		release()
		release = func() {}
		start := time.Now()
		v, rel, err := setup()
		if err != nil {
			return last, release, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last, release = v, rel
	}
	return last, release, median(times), nil
}
