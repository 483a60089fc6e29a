package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// contract is the part of ../BENCHMARK.json the self-test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractNamesEveryWorkload(t *testing.T) {
	c := loadContract(t)
	listed := map[string]bool{}
	for _, w := range c.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", w.Name)
		}
		listed[w.Name] = true
	}
	for _, w := range workloads {
		if !listed[w.name] {
			t.Errorf("workload %q is missing from BENCHMARK.json", w.name)
		}
	}
}

// TestShortRuns runs every workload briefly, timed and traced, on two
// seeds. Each run must pass every correctness gate and report exactly
// the metrics BENCHMARK.json lists, each with its unit, so both seeds
// yield the same metric set.
func TestShortRuns(t *testing.T) {
	c := loadContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			for _, seed := range []int64{1, 2} {
				t.Run(fmt.Sprintf("%s/trace=%v/seed=%d", w.name, traced, seed), func(t *testing.T) {
					var out bytes.Buffer
					res, err := run(&out, options{workload: w, seed: seed, seconds: 1, trace: traced, out: t.TempDir()})
					if err != nil {
						t.Fatalf("run: %v\n%s", err, out.String())
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
					}
					checkMetrics(t, res, want, !traced)
					if !traced {
						if !strings.Contains(out.String(), "# error_rate") {
							t.Errorf("the report does not print error_rate:\n%s", out.String())
						}
						if w == fig15Warm && !strings.Contains(out.String(), "# fig15_pass_ms") {
							t.Errorf("the report does not print fig15_pass_ms:\n%s", out.String())
						}
					}
					if !strings.Contains(out.String(), "steal_share=") || !strings.Contains(out.String(), "GOMAXPROCS=") {
						t.Errorf("the report does not print the environment:\n%s", out.String())
					}
				})
			}
		}
	}
}

// checkMetrics asserts that res reports exactly want, each with its
// unit, and, for end-to-end metrics, a positive value.
func checkMetrics(t *testing.T, res *outcome, want []contractMetric, positive bool) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
		case positive && !(got.Value > 0):
			t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		var names []string
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("reported %d metrics %v, want %d", len(names), names, len(want))
	}
}
