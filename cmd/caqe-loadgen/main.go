// Command caqe-loadgen is an open-loop overload driver for caqe-serve, a
// single server or a coordinator alike (both speak the same wire). It
// sustains -sessions concurrent client sessions, each looping through a
// full query lifecycle: submit a query with a contract class drawn from a
// fixed mix, stream its guaranteed-final results, and — for configured
// fractions of the population — cancel it mid-stream (-cancel-frac) or
// read the stream slowly (-slow-frac, exercising the server's delivery
// backpressure). Sessions keep cycling until -duration elapses, so total
// submissions far exceed the engine's 64 query slots and every admission
// after the first 64 exercises mid-run slot reclamation.
//
// It measures nothing the server or the repository benchmark already
// measures: time to first result is the server's caqe_query_ttfr_seconds
// histogram, and the serving latencies are benchmark/'s serve-* workloads.
// What it counts is the lifecycle under overload: submissions, completed
// and partial streams, cancels, emissions, and the shedding the server
// answers with. 429 and 503 (with Retry-After) and 409 are expected under
// open-loop arrivals; they are counted, honoured with jittered backoff and
// never fatal. Any other 5xx is a serving bug, and the process exits
// non-zero if it saw one. The counts are written as JSON to -out (default
// stdout).
//
// Usage:
//
//	caqe-loadgen [-url http://localhost:8734] [-sessions 1000] [-duration 15s]
//	             [-dims 4] [-keys 2] [-cancel-frac 0.1] [-slow-frac 0.05]
//	             [-slow-delay 20ms] [-seed 1] [-out results.json]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caqe/internal/cluster"
)

// baseDeadline is the contract deadline (contract seconds) that deadline
// and soft-deadline queries draw around: uniform in [0.5, 1.5) times it.
const baseDeadline = 30

// contractMix is the cumulative draw table of contract classes.
var contractMix = []struct {
	class string
	cum   float64
}{
	{"softdeadline", 0.5},
	{"deadline", 0.65},
	{"logdecay", 0.8},
	{"ratequota", 0.9},
	{"hybrid", 1},
}

type config struct {
	URL       string        `json:"url"`
	Sessions  int           `json:"sessions"`
	Duration  time.Duration `json:"-"`
	DurSecs   float64       `json:"durationSeconds"`
	Dims      int           `json:"dims"`
	Keys      int           `json:"keys"`
	CancelPct float64       `json:"cancelFrac"`
	SlowPct   float64       `json:"slowFrac"`
	SlowDelay time.Duration `json:"-"`
	Seed      int64         `json:"seed"`
}

// counters aggregates lifecycle outcomes across all sessions.
type counters struct {
	submitted     atomic.Int64
	completed     atomic.Int64 // streams that reached their done record
	partials      atomic.Int64 // coordinator done records with partial=true
	cancelled     atomic.Int64
	rejected429   atomic.Int64
	rejected503   atomic.Int64
	rejected409   atomic.Int64
	unexpected5xx atomic.Int64
	emissions     atomic.Int64
	streamErrors  atomic.Int64 // transport-level stream failures
}

type results struct {
	Config        config  `json:"config"`
	Submitted     int64   `json:"submitted"`
	Completed     int64   `json:"completed"`
	Partials      int64   `json:"partials"` // coordinator: done with partial=true
	Cancelled     int64   `json:"cancelled"`
	Rejected429   int64   `json:"rejected429"`
	Rejected503   int64   `json:"rejected503"`
	Rejected409   int64   `json:"rejected409"`
	Unexpected5xx int64   `json:"unexpected5xx"`
	StreamErrors  int64   `json:"streamErrors"`
	Emissions     int64   `json:"emissions"`
	QPS           float64 `json:"completedPerSecond"`
}

// session runs one client lifecycle loop until ctx is cancelled: submit
// (with Retry-After-honoring backoff), stream, maybe cancel, repeat.
func session(ctx context.Context, id int, cfg config, client *http.Client, cnt *counters) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	for ctx.Err() == nil {
		qid, ok := submitOne(ctx, id, cfg, client, rng, cnt)
		if !ok {
			continue
		}
		cnt.submitted.Add(1)
		slow := rng.Float64() < cfg.SlowPct
		cancelAfter := -1
		if rng.Float64() < cfg.CancelPct {
			cancelAfter = rng.Intn(4) // cancel after 0..3 streamed results
		}
		streamOne(ctx, cfg, client, qid, slow, cancelAfter, cnt)
	}
}

// submitOne posts one randomly drawn query, backing off per Retry-After on
// 429/503/409 rejections. Returns the query id, or ok=false when the
// context expired or the submission was rejected (the caller just loops).
func submitOne(ctx context.Context, id int, cfg config, client *http.Client,
	rng *rand.Rand, cnt *counters) (int, bool) {
	npref := 1 + rng.Intn(min(3, cfg.Dims))
	pref := rng.Perm(cfg.Dims)[:npref]
	sort.Ints(pref)
	spec := cluster.ContractSpec{Class: drawClass(rng)}
	switch spec.Class {
	case "softdeadline", "deadline":
		spec.Deadline = baseDeadline * (0.5 + float64(rng.Float64()))
	case "ratequota", "hybrid":
		spec.Frac = 0.05 + float64(0.15*rng.Float64())
		spec.Interval = 1 + float64(4*rng.Float64())
	}
	body, _ := json.Marshal(cluster.QuerySpec{
		Name:     fmt.Sprintf("lg-%d", id),
		JC:       rng.Intn(cfg.Keys),
		Pref:     pref,
		Priority: rng.Float64(),
		Contract: spec,
	})
	req, err := http.NewRequestWithContext(ctx, "POST", cfg.URL+"/queries", bytes.NewReader(body))
	if err != nil {
		return 0, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			cnt.streamErrors.Add(1)
			sleepCtx(ctx, 50*time.Millisecond)
		}
		return 0, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusCreated:
		var rep cluster.SubmitReply
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			cnt.streamErrors.Add(1)
			return 0, false
		}
		return rep.ID, true
	case http.StatusTooManyRequests:
		cnt.rejected429.Add(1)
	case http.StatusServiceUnavailable:
		cnt.rejected503.Add(1)
	case http.StatusConflict:
		cnt.rejected409.Add(1)
	default:
		if resp.StatusCode >= 500 {
			cnt.unexpected5xx.Add(1)
		}
		sleepCtx(ctx, 100*time.Millisecond)
		return 0, false
	}
	sleepCtx(ctx, retryAfter(resp, rng))
	return 0, false
}

// drawClass draws a contract class from contractMix.
func drawClass(rng *rand.Rand) string {
	x := rng.Float64()
	for _, e := range contractMix {
		if x <= e.cum {
			return e.class
		}
	}
	return contractMix[len(contractMix)-1].class
}

// retryAfter reads the server's Retry-After hint (seconds), falling back
// to a short default, and jitters it so thundering herds decorrelate.
func retryAfter(resp *http.Response, rng *rand.Rand) time.Duration {
	base := 200 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			base = time.Duration(secs) * time.Second
		}
	}
	// Full jitter in (0.1, 1.1] * base keeps retries spread out while
	// still honoring the server's order of magnitude.
	return time.Duration((0.1 + float64(rng.Float64())) * float64(base))
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// streamOne consumes one query's result stream, optionally throttling
// reads (slow consumer) and optionally cancelling after cancelAfter
// emissions.
func streamOne(ctx context.Context, cfg config, client *http.Client, qid int,
	slow bool, cancelAfter int, cnt *counters) {
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/queries/%d/results", cfg.URL, qid), nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			cnt.streamErrors.Add(1)
		}
		return
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			cnt.unexpected5xx.Add(1)
		} else {
			cnt.streamErrors.Add(1)
		}
		return
	}

	streamed := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Partial is only ever set on coordinator done records (a shard
		// failed mid-query).
		var probe cluster.StreamRecord
		if err := json.Unmarshal(line, &probe); err != nil {
			cnt.streamErrors.Add(1)
			return
		}
		switch {
		case probe.Done != nil:
			cnt.completed.Add(1)
			if probe.Partial {
				cnt.partials.Add(1)
			}
			return
		case probe.Lag != nil:
			// Coalesced results; counted server-side, nothing to do here.
		default:
			cnt.emissions.Add(1)
			streamed++
			if cancelAfter >= 0 && streamed > cancelAfter {
				cancelOne(ctx, cfg, client, qid, cnt)
				return
			}
			if slow {
				sleepCtx(ctx, cfg.SlowDelay)
			}
		}
		if ctx.Err() != nil {
			return
		}
	}
	if sc.Err() != nil && ctx.Err() == nil {
		cnt.streamErrors.Add(1)
	}
}

func cancelOne(ctx context.Context, cfg config, client *http.Client, qid int, cnt *counters) {
	req, err := http.NewRequestWithContext(ctx, "DELETE",
		fmt.Sprintf("%s/queries/%d", cfg.URL, qid), nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Single-node servers acknowledge cancellation with 204; coordinators
	// return the query's status document with 200.
	if resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK {
		cnt.cancelled.Add(1)
	} else if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
		cnt.unexpected5xx.Add(1)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.URL, "url", "http://localhost:8734", "caqe-serve base URL (server or coordinator)")
	flag.IntVar(&cfg.Sessions, "sessions", 1000, "concurrent client sessions")
	flag.DurationVar(&cfg.Duration, "duration", 15*time.Second, "run length")
	flag.IntVar(&cfg.Dims, "dims", 4, "output dimensionality served (must match caqe-serve -dims)")
	flag.IntVar(&cfg.Keys, "keys", 2, "join conditions served (must match caqe-serve -keys)")
	flag.Float64Var(&cfg.CancelPct, "cancel-frac", 0.1, "fraction of queries cancelled mid-stream")
	flag.Float64Var(&cfg.SlowPct, "slow-frac", 0.05, "fraction of sessions that read their streams slowly")
	flag.DurationVar(&cfg.SlowDelay, "slow-delay", 20*time.Millisecond, "per-result read delay for slow sessions")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload draw seed")
	out := flag.String("out", "", "write results JSON here (default stdout)")
	flag.Parse()
	cfg.DurSecs = cfg.Duration.Seconds()

	if cfg.Sessions < 1 || cfg.Keys < 1 || cfg.Dims < 1 {
		fmt.Fprintln(os.Stderr, "caqe-loadgen: sessions, keys and dims must be positive")
		os.Exit(2)
	}

	// One shared client; the transport is sized for thousands of concurrent
	// streams against the one server.
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Sessions + 16,
			MaxIdleConnsPerHost: cfg.Sessions + 16,
			MaxConnsPerHost:     0,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	var (
		cnt   counters
		wg    sync.WaitGroup
		start = time.Now()
	)
	wg.Add(cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		go func(id int) {
			defer wg.Done()
			session(ctx, id, cfg, client, &cnt)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := results{
		Config:        cfg,
		Submitted:     cnt.submitted.Load(),
		Completed:     cnt.completed.Load(),
		Partials:      cnt.partials.Load(),
		Cancelled:     cnt.cancelled.Load(),
		Rejected429:   cnt.rejected429.Load(),
		Rejected503:   cnt.rejected503.Load(),
		Rejected409:   cnt.rejected409.Load(),
		Unexpected5xx: cnt.unexpected5xx.Load(),
		StreamErrors:  cnt.streamErrors.Load(),
		Emissions:     cnt.emissions.Load(),
		QPS:           float64(cnt.completed.Load()) / elapsed,
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caqe-loadgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "caqe-loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"caqe-loadgen: %d sessions vs %s, %.1fs: %d submitted, %d completed (%d partial), %d cancelled, %d emissions, %d/429 %d/503 %d/409, %d unexpected 5xx\n",
		cfg.Sessions, cfg.URL, elapsed, res.Submitted, res.Completed, res.Partials, res.Cancelled,
		res.Emissions, res.Rejected429, res.Rejected503, res.Rejected409, res.Unexpected5xx)
	if res.Unexpected5xx > 0 {
		fmt.Fprintf(os.Stderr, "caqe-loadgen: FAIL: %d unexpected 5xx responses\n", res.Unexpected5xx)
		os.Exit(1)
	}
	if res.Submitted == 0 {
		fmt.Fprintln(os.Stderr, "caqe-loadgen: FAIL: no queries were admitted")
		os.Exit(1)
	}
}
