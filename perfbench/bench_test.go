package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// These tests run short benchmark runs, several of them with a layer
// deliberately slowed through a public interface, and check that the
// metrics move with their layers. They take a few minutes:
//
//	cd perfbench && go test -timeout 20m .

// buildVaqd compiles cmd/vaqd from the enclosing repository.
func buildVaqd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vaqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vaqd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/vaqd: %v\n%s", err, out)
	}
	return bin
}

func shortRun(t *testing.T, o options) *report {
	t.Helper()
	if o.work == "" {
		o.work = t.TempDir()
	}
	if o.window == 0 {
		o.window = 2 * time.Second
	}
	rep, err := workloads[o.workload](o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", o.workload, rep.failed, rep.attempted, rep.notes)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if _, err := resultLine(rep, defs); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return rep
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
}

// countMetrics are the metrics that must repeat exactly at one seed.
var countMetrics = []string{
	"detect.invocations_per_clip",
	"rvaq.random_accesses_per_query",
	"rvaq.sorted_accesses_per_query",
	"rvaq.iterations_per_query",
	"rvaq.candidates_per_query",
	"api.bytes_per_topk",
	"shard.calls_per_topk",
	"session.invocations_per_clip",
}

// TestExactCounts runs every workload twice at one seed, traced and
// untraced, and requires identical count metrics and gpu_ms_per_clip.
func TestExactCounts(t *testing.T) {
	vaqd := buildVaqd(t)
	for _, w := range []string{"online", "fleet"} {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 7, vaqd: vaqd}
			gpu := shortRun(t, o).metrics["gpu_ms_per_clip"]
			if again := shortRun(t, o).metrics["gpu_ms_per_clip"]; again != gpu || gpu <= 0 {
				t.Errorf("gpu_ms_per_clip: %v then %v", gpu, again)
			}
			o.trace = true
			a, b := shortRun(t, o), shortRun(t, o)
			for _, m := range countMetrics {
				if a.metrics[m] != b.metrics[m] {
					t.Errorf("%s: %v then %v", m, a.metrics[m], b.metrics[m])
				}
			}
		})
	}
}

// TestSensitivityDetect slows every detector invocation by a fixed
// busy-wait and expects the online per-clip median to rise by about
// invocations per clip × the delay.
func TestSensitivityDetect(t *testing.T) {
	const delay = 10 * time.Microsecond
	o := options{workload: "online", seed: 3, window: 8 * time.Second}
	base := shortRun(t, o).metrics["op_p50_us"]
	o.trace = true
	inv := shortRun(t, o).metrics["detect.invocations_per_clip"]
	o.trace, o.detectDelay = false, delay
	slow := shortRun(t, o).metrics["op_p50_us"]
	want := inv * us(delay)
	if rise := slow - base; rise < 0.5*want || rise > 1.5*want {
		t.Errorf("clip p50 %.1f µs → %.1f µs: rise %.1f µs, want about %.1f (%.1f invocations × %v)", base, slow, rise, want, inv, delay)
	}
}

// TestSensitivityFault runs the fleet's shards with injected detector
// latency and expects the session median to rise.
func TestSensitivityFault(t *testing.T) {
	o := options{workload: "fleet", seed: 3, window: 3 * time.Second, vaqd: buildVaqd(t)}
	base := shortRun(t, o).metrics["job_p50_ms"]
	o.fault = "latency:0-:0.05:1ms"
	slow := shortRun(t, o).metrics["job_p50_ms"]
	if slow < 1.5*base {
		t.Errorf("session p50 %.1f ms → %.1f ms with -fault %s, want a clear rise", base, slow, o.fault)
	}
}

// TestSummarizeFastState runs synthetic windows on a machine that is
// 1.75× slower for most of the time, with two classes of ops 3× apart
// in cost, and checks that the figures are those of the fast state
// whatever its share of the window and the class mix.
func TestSummarizeFastState(t *testing.T) {
	window := 20 * time.Second
	run := func(fastShare, dearShare float64) windowStats {
		var xs []sample
		for i := 0; i < 60000; i++ {
			at := float64(i) / 3000
			kind := 0
			if float64(i%100) < 100*dearShare {
				kind = 1
			}
			lat := []float64{10, 30}[kind]
			if math.Mod(at, 4) >= 4*fastShare {
				lat *= 1.75
			}
			xs = append(xs, sample{at, lat, 0, kind, kind})
		}
		return summarize(xs, window)
	}
	want := math.Sqrt(10 * 30)
	for _, fast := range []float64{0.0625, 0.25, 0.5} {
		for _, dear := range []float64{0.3, 0.5, 0.7} {
			w := run(fast, dear)
			if math.Abs(w.p50-want) > 1e-9 || math.Abs(w.p99-want) > 1e-9 || w.rate < 2999 || w.rate > 3001 {
				t.Errorf("fast share %.2f, dear share %.1f: summarize = %+v, want p50 = p99 = %.2f and 3000 ops/s", fast, dear, w, want)
			}
		}
	}
}
