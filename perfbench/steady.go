package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
)

// steadiness runs the workload n times back to back, each in its own
// child process with seeds seed, seed+1, ..., and prints for every metric
// the median, the quartiles and (Q3-Q1)/median, the spread a benchmark
// bound is compared against.
func steadiness(n int, seed uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "steady" && f.Name != "seed" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []float64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(exe, append(args, fmt.Sprintf("-seed=%d", s))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		share := float64(res.Failed) / float64(res.Attempted)
		shares = append(shares, share)
		fmt.Printf("seed %d: correct %v, attempted %d, failed %d", s, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf(", %s %.4g", name, res.Metrics[name].Value)
		}
		fmt.Println()
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-36s %12.6g %12.6g %12.6g %8.4f  %s\n", name, q1, med, q3, spread, units[name])
	}
	same := true
	for _, s := range shares {
		same = same && s == shares[0]
	}
	fmt.Printf("failed share identical in every run: %v\n", same)
	return nil
}
