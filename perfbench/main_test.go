package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// smoke runs one workload at smoke sizes and returns its result and the
// metric lines of its report, by name.
func smoke(t *testing.T, workload string, trace bool, inject string) (result, map[string]metric) {
	t.Helper()
	var report, log bytes.Buffer
	cfg := config{workload: workload, seed: 7, trace: trace, smoke: true, out: t.TempDir(), inject: inject}
	res, err := execute(context.Background(), cfg, &report, &log)
	if err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", workload, trace, err, log.String())
	}
	printed := make(map[string]metric)
	sc := bufio.NewScanner(&report)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != "metric" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", sc.Text(), err)
		}
		printed[f[1]] = metric{Value: v, Unit: f[3]}
	}
	return res, printed
}

// TestSmokePrintsEveryMetric runs every workload once, untraced and traced,
// and requires every metric to be printed with its unit, and every op to
// pass verification.
func TestSmokePrintsEveryMetric(t *testing.T) {
	clusterOnly := []metricDef{{"round_p50_ms", "ms"}, {"round_p99_ms", "ms"},
		{"round_samples", "count"}, {"msgs_per_update", "ratio"}}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, printed := smoke(t, w.name, trace, "")
			want := append([]metricDef{{"fail_ratio", "ratio"}, {"wall_s", "s"}}, endToEnd...)
			if strings.HasPrefix(w.name, "cluster-") {
				want = append(want, clusterOnly...)
			}
			if trace {
				want = perLayer
			}
			for _, d := range want {
				got, ok := printed[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, trace, d.name)
					continue
				}
				if got.Unit != d.unit {
					t.Errorf("%s trace=%v: %s printed in %q, want %q", w.name, trace, d.name, got.Unit, d.unit)
				}
				if m, ok := res.Metrics[d.name]; ok && m.Unit != d.unit {
					t.Errorf("%s trace=%v: %s result unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
			}
			if len(res.Metrics) != len(map[bool][]metricDef{false: endToEnd, true: perLayer}[trace]) {
				t.Errorf("%s trace=%v: result has %d metrics", w.name, trace, len(res.Metrics))
			}
			if !res.Correct || res.Failed != 0 || printed["fail_ratio"].Value != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", w.name, trace, res.Failed, res.Attempted)
			}
			if !trace && (res.Metrics["cpu_s"].Value <= 0 || printed["wall_s"].Value <= 0) {
				t.Errorf("%s: cpu_s = %v, wall_s = %v", w.name, res.Metrics["cpu_s"].Value, printed["wall_s"].Value)
			}
		}
	}
}

// TestInjectedFaultsRaiseFailRatio checks that the verification is live: a
// wrong verdict and a stalled cluster must both count as failed ops.
func TestInjectedFaultsRaiseFailRatio(t *testing.T) {
	for _, c := range []struct{ workload, inject string }{
		{"maxf-core", injectWrongVerdict},
		{"coordinate-chord", injectWrongVerdict},
		{"cluster-lossy", injectStall},
		{"cluster-tcp", injectStall},
	} {
		res, printed := smoke(t, c.workload, false, c.inject)
		if res.Correct || res.Failed == 0 || printed["fail_ratio"].Value <= 0 {
			t.Errorf("%s with %s: correct=%v failed=%d fail_ratio=%v", c.workload, c.inject,
				res.Correct, res.Failed, printed["fail_ratio"].Value)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// lists in step, and its workloads among the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %s, which the program does not have", w.Name)
		}
	}
	for _, c := range []struct {
		spec []def
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.spec), len(c.prog))
		}
		for i, d := range c.spec {
			if d.Name != c.prog[i].name || d.Unit != c.prog[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					i, d.Name, d.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestHistogramQuantile pins the log-linear buckets: a reported quantile
// is the upper edge of its bucket, at most 1/16 above the true value.
func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := time.Duration(q*1000) * time.Microsecond
		got := h.Quantile(q)
		if got < want || float64(got) > float64(want)*(1+1.0/16) {
			t.Errorf("Quantile(%v) = %v, want within [%v, +1/16]", q, got, want)
		}
	}
	for i := 0; i < 59*histSub-1; i++ { // beyond 2^62 ns the edges overflow int64
		if bucketOf(bucketUpper(i)) != i || bucketOf(bucketUpper(i)+1) != i+1 {
			t.Fatalf("bucket %d: upper edge %d does not round-trip", i, bucketUpper(i))
		}
	}
}

// TestSelfTimes checks parent resolution and self time on a nested trace.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.beginOp()
	tr.add("op", levelOp, 0, 100)
	tr.add("call", levelCall, 10, 90)
	tr.add("check", levelUnit, 10, 50)
	tr.add("store", levelStore, 20, 30)
	tr.add("store", levelStore, 60, 70) // inside the call, outside any check
	self := selfTimes(tr.resolve())
	want := map[string]float64{"op": 20e-9, "call": 30e-9, "check": 30e-9, "store": 20e-9}
	for name, w := range want {
		if got := self[name]; got < w*0.999 || got > w*1.001 {
			t.Errorf("self[%s] = %v, want %v", name, got, w)
		}
	}
}
