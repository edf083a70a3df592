package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
)

// The steadiness command: two sets of ten runs of every workload, each
// run in a fresh process as the runs that compare two commits are, on
// seeds 1–10 and then 11–20, with the window of BENCHMARK.json. For
// every end-to-end metric it prints each set's median and quartile
// spread next to the bound from BENCHMARK.json. It fails when a spread
// exceeds its bound, when the second set's median is worse than the
// first's by more than the bound, when a run has a failed operation or
// incorrect output, or when the server configuration has drifted from
// cmd/depserve's defaults.

// steadyRuns is the number of runs of a workload in one set.
const steadyRuns = 10

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func steady() int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady: run from the repository root:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "steady: BENCHMARK.json:", err)
		return 2
	}
	status := 0
	if err := checkDefaults("."); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		status = 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	// sets[k][workload][metric] holds the values of set k.
	var sets [2]map[string]map[string][]float64
	for k := range sets {
		sets[k] = map[string]map[string][]float64{}
		for _, w := range spec.Workloads {
			values := map[string][]float64{}
			for i := 0; i < steadyRuns; i++ {
				seed := 1 + k*steadyRuns + i
				res, err := runOnce(self, w.Name, seed, spec.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("%s seed %d: correct %v, %d of %d operations failed\n", w.Name, seed, res.Correct, res.Failed, res.Attempted)
					status = 1
				}
				for m, v := range res.Metrics {
					values[m] = append(values[m], v.Value)
				}
				fmt.Fprintf(os.Stderr, "steady: set %d %s seed %d done\n", k+1, w.Name, seed)
			}
			sets[k][w.Name] = values
		}
	}
	for _, w := range spec.Workloads {
		fmt.Printf("%s: two sets of %d runs of %ds (seeds 1-%d, %d-%d)\n", w.Name, steadyRuns, spec.RunSeconds,
			steadyRuns, steadyRuns+1, 2*steadyRuns)
		fmt.Printf("  %-22s %12s %8s %12s %8s %8s %6s\n", "metric", "median 1", "spread", "median 2", "spread", "worse", "bound")
		for _, m := range spec.EndToEnd {
			var med, spread [2]float64
			missing := false
			for k := range sets {
				xs := sets[k][w.Name][m.Name]
				if len(xs) != steadyRuns {
					missing = true
					break
				}
				q1, q2, q3 := quartiles(xs)
				med[k], spread[k] = q2, (q3-q1)/q2
			}
			if missing {
				fmt.Printf("  %-22s missing\n", m.Name)
				status = 1
				continue
			}
			// worse is how much worse the second median is than the first,
			// as a share of the first; negative when it is better.
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			var marks []string
			switch {
			case spread[0] > m.Bound || spread[1] > m.Bound:
				marks = append(marks, "SPREAD OVER BOUND")
				status = 1
			case spread[0] > m.Bound/3 || spread[1] > m.Bound/3:
				marks = append(marks, "spread above a third of the bound")
			}
			if worse > m.Bound {
				marks = append(marks, "SECOND SET WORSE BY MORE THAN THE BOUND")
				status = 1
			}
			fmt.Printf("  %-22s %12.6g %8.4f %12.6g %8.4f %8.4f %6.2f %s\n", m.Name, med[0], spread[0],
				med[1], spread[1], worse, m.Bound, strings.Join(marks, "; "))
		}
	}
	return status
}

// runOnce runs one workload in a fresh process and returns its result.
func runOnce(self, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// quartiles returns the first quartile, the median and the third
// quartile as Python's statistics.quantiles(xs, n=4) (the exclusive
// method) computes them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// flagLine matches one flag of Go's flag usage output: the name and
// type line and the description line with an optional default.
var flagLine = regexp.MustCompile(`(?m)^  -([a-z0-9-]+)(?: (\w+))?\n\s+.*?(?:\(default (.*)\))?$`)

// checkDefaults runs `go run ./cmd/depserve -h` in root and reports
// every flag whose default differs from the configuration the
// benchmark's server is built with.
func checkDefaults(root string) error {
	cmd := exec.Command("go", "run", "./cmd/depserve", "-h")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go run ./cmd/depserve -h: %v\n%s", err, out.String())
	}
	got := map[string]string{}
	for _, m := range flagLine.FindAllStringSubmatch(out.String(), -1) {
		def := strings.Trim(m[3], `"`)
		if m[3] == "" {
			def = map[string]string{"": "false", "int": "0", "duration": "0s"}[m[2]]
		}
		got[m[1]] = def
	}
	var drift []string
	for name, want := range depserveDefaults {
		if got[name] != want {
			drift = append(drift, fmt.Sprintf("-%s: depserve %q, benchmark %q", name, got[name], want))
		}
	}
	sort.Strings(drift)
	if len(drift) > 0 {
		return fmt.Errorf("benchmark server config drifted from cmd/depserve defaults:\n  %s", strings.Join(drift, "\n  "))
	}
	return nil
}
