// Command caqe-loadgen is an open-loop HTTP load driver for caqe-serve.
// It sustains -sessions concurrent client sessions, each looping through a
// full query lifecycle against the server: submit a query with a randomly
// drawn contract class (-mix), stream its guaranteed-final results, and —
// for configured fractions of the population — cancel it mid-stream
// (-cancel-frac) or consume the stream slowly (-slow-frac, exercising the
// server's delivery backpressure). Sessions keep cycling until -duration
// elapses, so total submissions far exceed the engine's 64 query slots and
// every admission after the first 64 exercises mid-run slot reclamation.
//
// The driver honors Retry-After on 429/503 rejections (they are expected
// shed behavior under open-loop arrivals, counted but not fatal) and treats
// any other 5xx as a failure: with -fail-on-5xx (default) the process exits
// nonzero so CI smoke runs catch serving bugs.
//
// Measurements: client-side time-to-first-result percentiles (p50, p90,
// p99, p999) across all streamed queries, end-to-end lifecycle counts, and
// a per-second pScore trajectory scraped from /stats (the sum of contract
// satisfactions across live queries — the quantity CAQE's scheduler
// maximizes). Results are written as JSON to -out (default stdout).
//
// With -target=coordinator the driver points at a scatter–gather
// coordinator node instead of a single server: the submit and stream wire
// shapes are identical, merged streams arrive in one burst once every
// shard's local skyline has been gathered, done records may carry
// partial=true when a shard failed (counted separately, never fatal), and
// the /stats scrape records the coordinator's cumulative merge-comparison
// count in place of the satisfaction pScore (coordinator stats expose
// merge work, not per-query satisfaction).
//
// Usage:
//
//	caqe-loadgen [-url http://localhost:8734] [-target server|coordinator]
//	             [-sessions 1000] [-duration 15s]
//	             [-dims 4] [-keys 2] [-mix softdeadline=0.5,deadline=0.15,logdecay=0.15,ratequota=0.1,hybrid=0.1]
//	             [-cancel-frac 0.1] [-slow-frac 0.05] [-slow-delay 20ms]
//	             [-deadline 30] [-seed 1] [-out results.json] [-fail-on-5xx]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caqe"
	"caqe/internal/cluster"
)

type config struct {
	URL       string        `json:"url"`
	Target    string        `json:"target"` // "server" or "coordinator"
	Sessions  int           `json:"sessions"`
	Duration  time.Duration `json:"-"`
	DurSecs   float64       `json:"durationSeconds"`
	Dims      int           `json:"dims"`
	Keys      int           `json:"keys"`
	Mix       string        `json:"mix"`
	CancelPct float64       `json:"cancelFrac"`
	SlowPct   float64       `json:"slowFrac"`
	SlowDelay time.Duration `json:"-"`
	Deadline  float64       `json:"deadline"`
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

// sampler collects TTFR observations; bounded lock scope keeps several
// thousand concurrent recorders cheap.
type sampler struct {
	mu sync.Mutex
	v  []float64
}

func (s *sampler) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *sampler) snapshot() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	return out
}

// percentile returns the p-th percentile (0..100) of sorted samples by
// nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// mixEntry is one contract class with its cumulative draw weight.
type mixEntry struct {
	class string
	cum   float64
}

// parseMix turns "softdeadline=0.5,deadline=0.2,..." into a cumulative
// distribution for contract drawing.
func parseMix(s string) ([]mixEntry, error) {
	known := map[string]bool{
		"softdeadline": true, "deadline": true, "logdecay": true,
		"ratequota": true, "hybrid": true,
	}
	var (
		entries []mixEntry
		total   float64
	)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want class=weight)", part)
		}
		name = strings.ToLower(strings.TrimSpace(name))
		if !known[name] {
			return nil, fmt.Errorf("unknown contract class %q in mix", name)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(weight), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", weight)
		}
		total += w
		entries = append(entries, mixEntry{class: name, cum: total})
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive weight", s)
	}
	for i := range entries {
		entries[i].cum /= total
	}
	return entries, nil
}

func drawClass(rng *rand.Rand, mix []mixEntry) string {
	x := rng.Float64()
	for _, e := range mix {
		if x <= e.cum {
			return e.class
		}
	}
	return mix[len(mix)-1].class
}

// pScoreSample is one point of the satisfaction trajectory. Against a
// coordinator target the pScore column carries cumulative merge
// comparisons instead (perSec then reads as merge throughput) and the
// clock column stays zero.
type pScoreSample struct {
	Seconds float64 `json:"t"`       // wall seconds since run start
	PScore  float64 `json:"pScore"`  // sum of per-query satisfactions in the live window
	Open    int     `json:"open"`    // open queries at scrape time
	Clock   float64 `json:"clock"`   // server session clock (contract seconds)
	PerSec  float64 `json:"perSec"`  // pScore delta since previous scrape / wall delta
	Queries int     `json:"queries"` // queries visible in the stats window
}

type ttfrSummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

type results struct {
	Config        config         `json:"config"`
	Submitted     int64          `json:"submitted"`
	Completed     int64          `json:"completed"`
	Partials      int64          `json:"partials"` // coordinator target: done with partial=true
	Cancelled     int64          `json:"cancelled"`
	Rejected429   int64          `json:"rejected429"`
	Rejected503   int64          `json:"rejected503"`
	Rejected409   int64          `json:"rejected409"`
	Unexpected5xx int64          `json:"unexpected5xx"`
	StreamErrors  int64          `json:"streamErrors"`
	Emissions     int64          `json:"emissions"`
	QPS           float64        `json:"completedPerSecond"`
	TTFR          ttfrSummary    `json:"ttfrSeconds"`
	PScore        []pScoreSample `json:"pScoreTrajectory"`
}

// session runs one client lifecycle loop until ctx is cancelled: submit
// (with Retry-After-honoring backoff), stream, maybe cancel, repeat.
func session(ctx context.Context, id int, cfg config, client *http.Client,
	mix []mixEntry, cnt *counters, ttfr *sampler) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
	for ctx.Err() == nil {
		qid, ok := submitOne(ctx, id, cfg, client, rng, mix, cnt)
		if !ok {
			continue
		}
		cnt.submitted.Add(1)
		slow := rng.Float64() < cfg.SlowPct
		cancelAfter := -1
		if rng.Float64() < cfg.CancelPct {
			cancelAfter = rng.Intn(4) // cancel after 0..3 streamed results
		}
		streamOne(ctx, cfg, client, qid, slow, cancelAfter, cnt, ttfr)
	}
}

// submitOne posts one randomly drawn query, backing off per Retry-After on
// 429/503 rejections. Returns the query id, or ok=false when the context
// expired or the submission was rejected (the caller just loops).
func submitOne(ctx context.Context, id int, cfg config, client *http.Client,
	rng *rand.Rand, mix []mixEntry, cnt *counters) (int, bool) {
	npref := 1 + rng.Intn(min(3, cfg.Dims))
	pref := rng.Perm(cfg.Dims)[:npref]
	sort.Ints(pref)
	spec := cluster.ContractSpec{Class: drawClass(rng, mix)}
	switch spec.Class {
	case "softdeadline", "deadline":
		spec.Deadline = cfg.Deadline * (0.5 + rng.Float64())
	case "ratequota", "hybrid":
		spec.Frac = 0.05 + 0.15*rng.Float64()
		spec.Interval = 1 + 4*rng.Float64()
		if spec.Class == "hybrid" {
			spec.Deadline = cfg.Deadline * (0.5 + rng.Float64())
		}
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
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if resp.StatusCode == http.StatusTooManyRequests {
			cnt.rejected429.Add(1)
		} else {
			cnt.rejected503.Add(1)
		}
		sleepCtx(ctx, retryAfter(resp, rng))
		return 0, false
	case http.StatusConflict:
		cnt.rejected409.Add(1)
		sleepCtx(ctx, retryAfter(resp, rng))
		return 0, false
	default:
		if resp.StatusCode >= 500 {
			cnt.unexpected5xx.Add(1)
		}
		sleepCtx(ctx, 100*time.Millisecond)
		return 0, false
	}
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
	return time.Duration((0.1 + rng.Float64()) * float64(base))
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// streamOne consumes one query's result stream, recording TTFR at the
// first emission, optionally throttling reads (slow consumer) and
// optionally cancelling after cancelAfter emissions.
func streamOne(ctx context.Context, cfg config, client *http.Client, qid int,
	slow bool, cancelAfter int, cnt *counters, ttfr *sampler) {
	submitted := time.Now()
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

	var (
		streamed int
		first    = true
	)
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
			if first {
				first = false
				ttfr.add(time.Since(submitted).Seconds())
			}
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

// scrapePScore polls /stats once a second, turning per-query satisfactions
// into the pScore trajectory. Against a coordinator it scrapes the
// coordinator progress figures instead: cumulative merge comparisons ride
// in the pScore column so perSec becomes merge throughput.
func scrapePScore(ctx context.Context, cfg config, client *http.Client, start time.Time) []pScoreSample {
	var (
		out      []pScoreSample
		prev     float64
		prevWall float64
	)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return out
		case <-tick.C:
		}
		req, err := http.NewRequestWithContext(ctx, "GET", cfg.URL+"/stats", nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		var (
			score, clock float64
			open, nq     int
		)
		if cfg.Target == "coordinator" {
			var st cluster.CoordStats
			err = json.NewDecoder(resp.Body).Decode(&st)
			score, open, nq = float64(st.MergeCmps), st.Open, st.Submitted
		} else {
			var st caqe.SessionStats
			err = json.NewDecoder(resp.Body).Decode(&st)
			for _, q := range st.Queries {
				score += q.Satisfaction
			}
			open, nq, clock = st.Open, len(st.Queries), st.Now
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		wall := time.Since(start).Seconds()
		sample := pScoreSample{
			Seconds: wall, PScore: score, Open: open,
			Clock: clock, Queries: nq,
		}
		if prevWall > 0 && wall > prevWall {
			sample.PerSec = (score - prev) / (wall - prevWall)
		}
		prev, prevWall = score, wall
		out = append(out, sample)
	}
}

func summarize(samples []float64) ttfrSummary {
	if len(samples) == 0 {
		return ttfrSummary{}
	}
	sort.Float64s(samples)
	var sum float64
	for _, x := range samples {
		sum += x
	}
	return ttfrSummary{
		Count: len(samples),
		Mean:  sum / float64(len(samples)),
		P50:   percentile(samples, 50),
		P90:   percentile(samples, 90),
		P99:   percentile(samples, 99),
		P999:  percentile(samples, 99.9),
		Max:   samples[len(samples)-1],
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.URL, "url", "http://localhost:8734", "caqe-serve base URL")
	flag.StringVar(&cfg.Target, "target", "server", "target role: server (single node) or coordinator (scatter-gather front end)")
	flag.IntVar(&cfg.Sessions, "sessions", 1000, "concurrent client sessions")
	flag.DurationVar(&cfg.Duration, "duration", 15*time.Second, "run length")
	flag.IntVar(&cfg.Dims, "dims", 4, "output dimensionality served (must match caqe-serve -dims)")
	flag.IntVar(&cfg.Keys, "keys", 2, "join conditions served (must match caqe-serve -keys)")
	flag.StringVar(&cfg.Mix, "mix",
		"softdeadline=0.5,deadline=0.15,logdecay=0.15,ratequota=0.1,hybrid=0.1",
		"contract class mix as class=weight pairs")
	flag.Float64Var(&cfg.CancelPct, "cancel-frac", 0.1, "fraction of queries cancelled mid-stream")
	flag.Float64Var(&cfg.SlowPct, "slow-frac", 0.05, "fraction of sessions that read their streams slowly")
	flag.DurationVar(&cfg.SlowDelay, "slow-delay", 20*time.Millisecond, "per-result read delay for slow sessions")
	flag.Float64Var(&cfg.Deadline, "deadline", 30, "base contract deadline (contract seconds)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload draw seed")
	out := flag.String("out", "", "write results JSON here (default stdout)")
	failOn5xx := flag.Bool("fail-on-5xx", true, "exit nonzero on any 5xx other than Retry-After shedding")
	flag.Parse()
	cfg.DurSecs = cfg.Duration.Seconds()

	mix, err := parseMix(cfg.Mix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caqe-loadgen: %v\n", err)
		os.Exit(2)
	}
	if cfg.Sessions < 1 || cfg.Keys < 1 || cfg.Dims < 1 {
		fmt.Fprintln(os.Stderr, "caqe-loadgen: sessions, keys and dims must be positive")
		os.Exit(2)
	}
	if cfg.Target != "server" && cfg.Target != "coordinator" {
		fmt.Fprintf(os.Stderr, "caqe-loadgen: unknown target %q (server or coordinator)\n", cfg.Target)
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
		ttfr  sampler
		wg    sync.WaitGroup
		start = time.Now()
	)
	scrapeDone := make(chan []pScoreSample, 1)
	go func() { scrapeDone <- scrapePScore(ctx, cfg, client, start) }()

	wg.Add(cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		go func(id int) {
			defer wg.Done()
			session(ctx, id, cfg, client, mix, &cnt, &ttfr)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	trajectory := <-scrapeDone

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
		TTFR:          summarize(ttfr.snapshot()),
		PScore:        trajectory,
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
		"caqe-loadgen: %d sessions vs %s, %.1fs: %d submitted, %d completed (%d partial), %d cancelled, %d/429 %d/503 %d/409, %d unexpected 5xx, TTFR p50=%.4fs p99=%.4fs p999=%.4fs\n",
		cfg.Sessions, cfg.Target, elapsed, res.Submitted, res.Completed, res.Partials, res.Cancelled,
		res.Rejected429, res.Rejected503, res.Rejected409, res.Unexpected5xx,
		res.TTFR.P50, res.TTFR.P99, res.TTFR.P999)
	if *failOn5xx && res.Unexpected5xx > 0 {
		fmt.Fprintf(os.Stderr, "caqe-loadgen: FAIL: %d unexpected 5xx responses\n", res.Unexpected5xx)
		os.Exit(1)
	}
	if res.Submitted == 0 {
		fmt.Fprintln(os.Stderr, "caqe-loadgen: FAIL: no queries were admitted")
		os.Exit(1)
	}
}
