package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"mrm"
	"mrm/internal/cluster"
	"mrm/internal/dist"
	"mrm/internal/llm"
)

// loadgenEnv names the environment variable that turns this binary (or the
// test binary) into the mrmd-code load generator; its value is a JSON
// loadgenConfig.
const loadgenEnv = "MRMBENCH_LOADGEN"

// loadgenConfig is what the load generator needs: where to send, and the
// seed, rate and length of its Poisson schedule.
type loadgenConfig struct {
	Addr    string
	Seed    uint64
	Rate    float64
	Seconds float64
}

// loadSample is one request as the load generator saw it. Err is empty for a
// 200 reply that carries its requested tokens or truncated.
type loadSample struct {
	DueNS      int64 // scheduled send, from the schedule's start
	LatencyNS  int64 // reply received minus scheduled send
	LagNS      int64 // actual send minus scheduled send
	OverheadNS int64 // round trip minus the server's wall_s
	WallNS     int64 // the reply's wall_s: enqueue to done inside mrmd
	Err        string
}

// submitReply mirrors the fields of mrmd's /v1/submit reply the gate reads.
type submitReply struct {
	Tokens    int     `json:"tokens"`
	Truncated bool    `json:"truncated"`
	WallS     float64 `json:"wall_s"`
}

// loadgenMain runs the load generator from its environment configuration
// and prints its samples as one JSON array on stdout.
func loadgenMain(spec string) int {
	var cfg loadgenConfig
	if err := json.Unmarshal([]byte(spec), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mrmbench load generator: %v\n", err)
		return 2
	}
	samples, err := loadgen(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrmbench load generator: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(samples); err != nil {
		fmt.Fprintf(os.Stderr, "mrmbench load generator: %v\n", err)
		return 1
	}
	return 0
}

// loadgen sends rate × seconds Splitwise-code requests (class mix as the
// fleet day's) at their Poisson arrival times over one unencrypted HTTP/2
// connection, without waiting for replies, and checks each reply.
func loadgen(cfg loadgenConfig) ([]loadSample, error) {
	n := max(1, int(cfg.Rate*cfg.Seconds))
	gen := cluster.Generator{
		Workload:   llm.SplitwiseCode,
		RatePerSec: cfg.Rate,
		Mix:        mrm.DefaultFleetDayParams().Mix,
		MaxContext: llm.Llama27B.MaxContext,
	}
	reqs, err := gen.Generate(dist.NewRNG(cfg.Seed), n)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{Protocols: h2c(), MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	url := "http://" + cfg.Addr + "/v1/submit"
	classes := []string{"interactive", "throughput", "best-effort"}
	// Every request must be answered well inside a run's time limit.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration((cfg.Seconds+60)*float64(time.Second)))
	defer cancel()

	samples := make([]loadSample, n)
	send := func(i int, due time.Time) {
		r := reqs[i]
		s := &samples[i]
		s.DueNS = int64(r.Arrival)
		sent := time.Now()
		s.LagNS = int64(sent.Sub(due))
		body, err := json.Marshal(map[string]any{
			"prompt_tokens": r.PromptTokens, "output_tokens": r.OutputTokens, "class": classes[r.Class],
		})
		if err != nil {
			s.Err = err.Error()
			return
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			s.Err = err.Error()
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			s.Err = err.Error()
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		got := time.Now()
		switch {
		case err != nil:
			s.Err = err.Error()
			return
		case resp.StatusCode != http.StatusOK:
			s.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
			return
		}
		var rep submitReply
		if err := json.Unmarshal(raw, &rep); err != nil {
			s.Err = fmt.Sprintf("reply %q: %v", raw, err)
			return
		}
		if rep.Tokens != r.OutputTokens && !rep.Truncated {
			s.Err = fmt.Sprintf("reply carries %d tokens, asked %d, not truncated", rep.Tokens, r.OutputTokens)
			return
		}
		wall := time.Duration(rep.WallS * float64(time.Second))
		s.LatencyNS = int64(got.Sub(due))
		s.OverheadNS = int64(got.Sub(sent) - wall)
		s.WallNS = int64(wall)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].Arrival)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i, due)
		}()
	}
	wg.Wait()
	return samples, nil
}
