package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"caqe/internal/run"
)

// HTTPConnConfig configures one coordinator→shard HTTP transport leg.
type HTTPConnConfig struct {
	// BaseURL is the shard node's root (e.g. http://127.0.0.1:8081).
	BaseURL string
	// Client is the HTTP client; nil uses a dedicated default. No global
	// client timeout is applied — result streams are long-lived; per-attempt
	// submit deadlines come from SubmitTimeout.
	Client *http.Client
	// Retries is the number of extra submission attempts after a retryable
	// failure (connection error, 429, 5xx). 0 means submit once.
	Retries int
	// RetryBackoff is the pause between attempts (default 100ms).
	RetryBackoff time.Duration
	// SubmitTimeout bounds each submission attempt (default 5s) — a hung
	// shard counts as a retryable failure.
	SubmitTimeout time.Duration
}

// HTTPConn is the remote transport: the coordinator fans a submission out
// to a caqe-serve shard node and gathers its NDJSON result stream.
type HTTPConn struct {
	cfg     HTTPConnConfig
	client  *http.Client
	retries atomic.Int64
}

// NewHTTPConn returns a connection to one shard node.
func NewHTTPConn(cfg HTTPConnConfig) *HTTPConn {
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.SubmitTimeout <= 0 {
		cfg.SubmitTimeout = 5 * time.Second
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPConn{cfg: cfg, client: client}
}

// NewHTTPShards builds connections to n shard nodes in shard order, ready
// for NewCoordinator.
func NewHTTPShards(urls []string, retries int, backoff, submitTimeout time.Duration) []ShardConn {
	conns := make([]ShardConn, len(urls))
	for i, u := range urls {
		conns[i] = NewHTTPConn(HTTPConnConfig{
			BaseURL: u, Retries: retries, RetryBackoff: backoff, SubmitTimeout: submitTimeout,
		})
	}
	return conns
}

// Retries returns the total submit retries performed on this connection.
func (c *HTTPConn) Retries() int64 { return c.retries.Load() }

// Close releases idle connections.
func (c *HTTPConn) Close() error {
	c.client.CloseIdleConnections()
	return nil
}

// StatusError is an HTTP rejection from a shard node. RetryAfter carries
// the node's Retry-After hint when the rejection included one (429/503
// shedding responses do); zero means no hint.
type StatusError struct {
	Status     int
	Body       string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard returned %d: %s", e.Status, e.Body)
}

// attemptTimeoutError marks a submit attempt that outlived its per-attempt
// deadline — a hung shard, retryable by definition. It deliberately does
// not unwrap to context.DeadlineExceeded so retryable() can tell it apart
// from a caller-owned context expiring.
type attemptTimeoutError struct {
	timeout time.Duration
}

func (e *attemptTimeoutError) Error() string {
	return fmt.Sprintf("submit attempt exceeded its %v deadline", e.timeout)
}

// retryable reports whether a submit error is worth another attempt:
// transport failures, per-attempt timeouts (a hung shard), 429 and 5xx
// are; other HTTP rejections (malformed query, slot conflict) are
// permanent, and so is a cancelled or expired caller context — retrying
// after the caller gave up only wastes the shard's admission slots.
func retryable(err error) bool {
	var at *attemptTimeoutError
	if errors.As(err, &at) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusTooManyRequests || se.Status >= 500
	}
	return true
}

// retryDelay picks the pause before the next attempt: the shard's
// Retry-After hint when the rejection carried one, otherwise a jittered
// backoff in [RetryBackoff/2, RetryBackoff*3/2) so a burst of rejected
// submissions does not re-arrive in lockstep.
func (c *HTTPConn) retryDelay(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter
	}
	b := c.cfg.RetryBackoff
	return b/2 + time.Duration(rand.Int63n(int64(b)))
}

// Submit posts the query to the shard node, retrying per the configured
// policy on retryable failures. Rejections that carry a Retry-After hint
// are honored; hintless failures back off with jitter.
func (c *HTTPConn) Submit(spec QuerySpec) (ShardQuery, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			time.Sleep(c.retryDelay(lastErr))
		}
		id, err := c.submitOnce(body)
		if err == nil {
			return &httpQuery{conn: c, id: id}, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("submit failed after %d attempts: %w", c.cfg.Retries+1, lastErr)
}

// parseRetryAfter reads a Retry-After header as delay seconds or an HTTP
// date; 0 means absent or unusable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func (c *HTTPConn) submitOnce(body []byte) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.SubmitTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/queries", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded && errors.Is(err, context.DeadlineExceeded) {
			return 0, &attemptTimeoutError{timeout: c.cfg.SubmitTimeout}
		}
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, &StatusError{
			Status:     resp.StatusCode,
			Body:       strings.TrimSpace(string(msg)),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	var qr SubmitReply
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return 0, fmt.Errorf("bad submit response: %w", err)
	}
	return qr.ID, nil
}

type httpQuery struct {
	conn *HTTPConn
	id   int
}

// Gather streams the shard's NDJSON results to completion, row IDs as the
// shard sent them. Any lossiness — a lag notice, a non-zero coalesced
// count, a done:false end, a dropped connection — is an error: a lossy
// stream is not a complete local skyline. Whatever was gathered is
// returned regardless.
func (q *httpQuery) Gather(ctx context.Context) ([]run.Emission, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/queries/%d/results", q.conn.cfg.BaseURL, q.id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := q.conn.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &StatusError{Status: resp.StatusCode, Body: strings.TrimSpace(string(msg))}
	}
	var out []run.Emission
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ln StreamRecord
		if err := json.Unmarshal(line, &ln); err != nil {
			return out, fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case ln.Done != nil:
			if !*ln.Done {
				return out, fmt.Errorf("stream severed (state %s): incomplete", ln.State)
			}
			if ln.Coalesced > 0 {
				return out, fmt.Errorf("stream coalesced %d emissions: incomplete", ln.Coalesced)
			}
			return out, nil
		case ln.Lag != nil:
			return out, fmt.Errorf("stream lagged, %d emissions coalesced: incomplete", *ln.Lag)
		case ln.RID != nil:
			out = append(out, run.Emission{Query: ln.Query, RID: *ln.RID, TID: ln.TID, Out: ln.Out, Time: ln.Time})
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("stream dropped: %w", err)
	}
	return out, fmt.Errorf("stream ended without done record: incomplete")
}

// Cancel deletes the query on the shard node; 404 (already finished and
// reaped) is not an error.
func (q *httpQuery) Cancel() error {
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/queries/%d", q.conn.cfg.BaseURL, q.id), nil)
	if err != nil {
		return err
	}
	resp, err := q.conn.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusNotFound {
		return &StatusError{Status: resp.StatusCode}
	}
	return nil
}
