// Command progressive demonstrates the progressive, cancellable query
// API end to end:
//
//  1. Direct engine use — Options.OnProgress streaming the top-k as it
//     refines round by round, then a row-budgeted run returning a
//     best-effort partial answer with ErrBudgetExhausted.
//  2. Over HTTP — POST /v1/query/stream rendering NDJSON progress
//     frames followed by the terminal result, against a throttled
//     (simulated slow-storage) copy of the same table so the
//     refinement is visible.
//
// Run with:
//
//	go run ./examples/progressive
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"fastmatch"
)

func main() {
	tbl := buildTable()
	eng := fastmatch.NewEngine(tbl)
	query := fastmatch.Query{Z: "city", X: []string{"hour"}}
	target := fastmatch.Target{Uniform: true}

	// --- 1a. Watch HistSim refine its answer round by round. ---
	fmt.Println("== progressive run (OnProgress)")
	opts := fastmatch.DefaultOptions(tbl.NumRows())
	opts.Executor = fastmatch.ScanMatch // deterministic round structure
	opts.Params.K = 3
	opts.Params.Epsilon = 0.02
	opts.Seed = 42
	opts.DisableCrossover = true // the sampler is the subject, not the exact scan
	opts.OnProgress = func(p fastmatch.Progress) {
		best := "-"
		if len(p.TopK) > 0 {
			best = fmt.Sprintf("%s (τ=%.4f)", p.TopK[0].Label, p.TopK[0].Distance)
		}
		fmt.Printf("  %-7s round %-2d  rows=%-8d blocks=%-5d best=%s\n",
			p.Phase, p.Round, p.IO.TuplesRead, p.IO.BlocksRead, best)
	}
	res, err := eng.Run(query, target, opts)
	if err != nil {
		log.Fatal(err)
	}
	printTopK("final answer", res)

	// --- 1b. A row budget returns the best effort seen so far. ---
	fmt.Println("\n== row-budgeted run (best-effort partial)")
	opts.OnProgress = nil
	opts.RowBudget = int64(tbl.NumRows() / 50)
	res, err = eng.Run(query, target, opts)
	switch {
	case errors.Is(err, fastmatch.ErrBudgetExhausted):
		fmt.Printf("  stopped after %d rows (budget %d), partial=%v\n",
			res.IO.TuplesRead, opts.RowBudget, res.Partial)
		printTopK("partial answer", res)
	case err != nil:
		log.Fatal(err)
	default:
		printTopK("answer inside budget", res)
	}
	opts.RowBudget = 0

	// --- 1c. Cancellation mid-run. ---
	fmt.Println("\n== canceled run")
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	opts.OnProgress = func(p fastmatch.Progress) {
		if calls++; calls == 1 {
			cancel() // abandon after the first interim answer
		}
	}
	res, err = eng.RunContext(ctx, query, target, opts)
	cancel()
	if errors.Is(err, fastmatch.ErrCanceled) && res != nil {
		fmt.Printf("  canceled after %d rows; best-effort top-1: %s\n",
			res.IO.TuplesRead, res.TopK[0].Label)
	}
	opts.OnProgress = nil

	// --- 2. The same contract over HTTP, against slow storage. ---
	fmt.Println("\n== NDJSON streaming over HTTP (throttled storage)")
	srv := fastmatch.NewServer(fastmatch.ServerConfig{})
	// A few tens of µs per block ≈ a slow disk; makes refinement visible.
	if err := srv.RegisterTable("taxi", fastmatch.NewThrottledReader(tbl, 20*time.Microsecond)); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{
	  "table": "taxi",
	  "query": {"z": "city", "x": ["hour"]},
	  "target": {"uniform": true},
	  "options": {"k": 3, "executor": "scanmatch", "epsilon": 0.02, "seed": 42,
	              "disable_crossover": true}
	}`
	resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var frame fastmatch.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			log.Fatalf("%v in %s", err, sc.Text())
		}
		switch frame.Type {
		case "progress":
			best := "-"
			if len(frame.Progress.TopK) > 0 {
				best = frame.Progress.TopK[0].Label
			}
			fmt.Printf("  frame: %-7s round %-2d rows=%-8d best=%s\n",
				frame.Progress.Phase, frame.Progress.Round,
				frame.Progress.IO.TuplesRead, best)
		case "result":
			var payload struct {
				TopK []struct {
					Label    string  `json:"label"`
					Distance float64 `json:"distance"`
				} `json:"topk"`
				Partial bool `json:"partial"`
			}
			if err := json.Unmarshal(frame.Result, &payload); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  result (partial=%v, %.1fms):\n", payload.Partial,
				float64(frame.DurationNS)/1e6)
			for i, m := range payload.TopK {
				fmt.Printf("    %d. %-10s τ=%.4f\n", i+1, m.Label, m.Distance)
			}
		case "error":
			log.Fatalf("stream error: %s", frame.Error)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// buildTable synthesizes hourly trip counts for cities with distinct
// diurnal shapes; the uniform target makes "which city is busiest
// around the clock" the question.
func buildTable() *fastmatch.Table {
	b := fastmatch.NewBuilder(128)
	if _, err := b.AddColumn("city"); err != nil {
		log.Fatal(err)
	}
	if _, err := b.AddColumn("hour"); err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cities := []string{"nyc", "chicago", "sf", "austin", "miami", "seattle", "boston", "denver"}
	for _, city := range cities {
		peak := rng.Intn(24)
		width := 2 + rng.Intn(6) // wider = flatter = closer to uniform
		for i := 0; i < 40_000; i++ {
			h := (peak + int(rng.NormFloat64()*float64(width)) + 240) % 24
			err := b.AppendRow(map[string]string{
				"city": city, "hour": fmt.Sprintf("h%02d", h),
			}, nil)
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	b.Shuffle(3)
	return b.Build()
}

func printTopK(label string, res *fastmatch.Result) {
	fmt.Printf("  %s (exact=%v, partial=%v, rows=%d):\n", label, res.Exact, res.Partial, res.IO.TuplesRead)
	for i, m := range res.TopK {
		fmt.Printf("    %d. %-10s τ=%.4f\n", i+1, m.Label, m.Distance)
	}
}
