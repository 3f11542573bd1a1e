package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line the benchmark prints last on stdout.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says where and on what a result was measured.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// Rows and Rates name each table's row count and each open-loop
	// generator's rate; FlushPolicy is the ingest WAL's write-flush
	// setting.
	Rows        map[string]int     `json:"rows"`
	Rates       map[string]float64 `json:"rates_per_s,omitempty"`
	FlushPolicy string             `json:"flush_policy,omitempty"`
}

// record is one run's full result file: the summary plus provenance,
// per-op sample counts and the reasons for any failure.
type record struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Provenance provenance     `json:"provenance"`
	Samples    map[string]int `json:"samples"`
	// Spread gives each op kind's p10, p25, p50, p75 and p90 in ms.
	Spread    map[string][5]float64 `json:"latency_spread_ms"`
	Problems  []string              `json:"problems,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metric     `json:"metrics"`
}

func newProvenance(seed int64, seconds int) provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
		Seed:       seed,
		Seconds:    seconds,
		Rows:       map[string]int{},
		Rates:      map[string]float64{},
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision names the measured source: the VCS revision the go command
// stamps into the binary when it builds inside a git checkout, else
// "unknown" (a source tree without git metadata).
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// vmHWM returns the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetHWM lowers the process's VmHWM to its current resident size, so
// that vmHWM reads the peak reached from now on (Linux: writing 5 to
// /proc/self/clear_refs).
func resetHWM() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting VmHWM: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("resetting VmHWM: %w", err)
	}
	return f.Close()
}

// printReport writes the human-readable metric lines, then the summary
// line, which is always last.
func printReport(w io.Writer, rec *record) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d ops attempted, %d failed, correct %v\n",
		rec.Workload, rec.Provenance.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	kinds := make([]string, 0, len(rec.Samples))
	for k := range rec.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  samples %-12s %d\n", k, rec.Samples[k])
	}
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	b, err := json.Marshal(summary{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
