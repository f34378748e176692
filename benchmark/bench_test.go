package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at smoke scale, untraced and traced,
// and holds the printed result to BENCHMARK.json: no failed op, and
// exactly the declared metric names with the declared units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []manifestMetric        `json:"end_to_end"`
		PerLayer  []manifestMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	all, err := specs("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(manifest.Workloads) {
		t.Fatalf("%d workloads in specs, %d in BENCHMARK.json", len(all), len(manifest.Workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	for i, sp := range all {
		if sp.name != manifest.Workloads[i].Name {
			t.Errorf("workload %d is %q in specs, %q in BENCHMARK.json", i, sp.name, manifest.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			declared := manifest.EndToEnd
			if traced {
				declared = manifest.PerLayer
			}
			var out bytes.Buffer
			cfg := config{seed: 7, seconds: refSeconds, trace: traced, scale: "smoke", outDir: t.TempDir()}
			failed, err := run(&out, sp.name, cfg, 1, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", sp.name, traced, err, out.String())
			}
			if failed != 0 {
				t.Errorf("%s traced=%v: %d failed ops\n%s", sp.name, traced, failed, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", sp.name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: declared metric %s not printed", sp.name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s printed in %q, declared in %q", sp.name, d.Name, got.Unit, d.Unit)
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q breaks the name rule", d.Name)
				}
			}
		}
	}
}

// TestHistQuantile holds the histogram to its 1 % error promise.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 1_000_000; v += 7 {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*1_000_000
		if got < 0.99*want || got > 1.01*want {
			t.Errorf("quantile(%g) = %g, want %g within 1%%", q, got, want)
		}
	}
	// The samples are uniform, so a band's mean is its midpoint.
	if got, want := h.meanBetween(tailLo, tailHi), (tailLo+tailHi)/2*1_000_000; got < 0.99*want || got > 1.01*want {
		t.Errorf("meanBetween(%g, %g) = %g, want %g within 1%%", tailLo, tailHi, got, want)
	}
	if got := h.meanBetween(0, 1); got < 0.99*500_000 || got > 1.01*500_000 {
		t.Errorf("meanBetween(0, 1) = %g, want 500000 within 1%%", got)
	}
}
