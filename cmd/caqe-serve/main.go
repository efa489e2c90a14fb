// Command caqe-serve exposes an online CAQE session over HTTP: clients
// submit decision-support queries with contracts against a loaded dataset,
// stream each query's guaranteed-final results as they become available,
// cancel queries, and inspect live session statistics and metrics. It is
// the serving counterpart of the batch caqe command.
//
// Usage:
//
//	caqe-serve [-addr :8734] [-n rows] [-dims d] [-dist independent|correlated|anti-correlated]
//	           [-sel σ] [-keys k] [-seed s] [-max-concurrent m] [-cells c]
//	           [-clock virtual|wall] [-retry-after s]
//	           [-max-buffered n] [-buffer-policy block-executor-never|disconnect-slow]
//	           [-max-buffered-total n] [-stream-write-timeout d]
//	           [-read-header-timeout d] [-idle-timeout d]
//
// Endpoints:
//
//	POST   /queries              submit a query (JSON body: cluster.QuerySpec)
//	GET    /queries/{id}         one query's status
//	DELETE /queries/{id}         cancel a query
//	GET    /queries/{id}/results stream guaranteed-final results (NDJSON, or
//	                             SSE with Accept: text/event-stream)
//	GET    /stats                live session statistics
//	GET    /metrics              Prometheus text exposition
//	GET    /healthz              liveness (503 while draining)
//
// The engine clock is selectable: -clock=virtual (default) charges
// contract time per elementary operation and is deterministic, while
// -clock=wall runs contract deadlines against real elapsed time and
// drives Eq. 11 feedback off measured processing rates.
//
// Admission is bounded: beyond -max-concurrent open queries a submission
// is rejected with 429, with 409 if all 64 engine query slots hold live
// (unfinished, uncancelled) queries, and — when consumers are not
// draining their streams and aggregate buffered emissions sit above
// -max-buffered-total — with 503. Retryable rejections (429 and 503)
// carry a Retry-After header (-retry-after seconds).
// Each query's delivery buffer is bounded by -max-buffered; past it the
// stream either coalesces its oldest undelivered results behind a lag
// notice (block-executor-never) or is severed while the query keeps
// running (disconnect-slow). On SIGTERM/SIGINT the server stops admitting,
// drains every running query to its full result set (streams receive
// their tails and close), then shuts down.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// newHTTPServer constructs the hardened listener-facing server: header
// reads, idle keep-alive connections and header size are all bounded so a
// connection that never completes its request line, or sits idle between
// requests, is reclaimed instead of held forever. WriteTimeout stays zero
// deliberately — result streams are long-lived — and each stream write is
// bounded by a per-write deadline inside handleResults instead.
func newHTTPServer(addr string, h http.Handler, readHeaderTimeout, idleTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxRequestBytes,
	}
}

func main() {
	var (
		addr    = flag.String("addr", ":8734", "listen address")
		n       = flag.Int("n", 2000, "rows per generated relation")
		dims    = flag.Int("dims", 4, "output dimensionality d")
		dist    = flag.String("dist", "independent", "data distribution: independent, correlated or anticorrelated (also ind, cor, anti, anti-correlated; any case)")
		sel     = flag.Float64("sel", 0.01, "join selectivity per key column")
		keys    = flag.Int("keys", 2, "key columns per relation (one join condition each)")
		seed    = flag.Int64("seed", 2014, "dataset seed")
		maxConc = flag.Int("max-concurrent", 16, "maximum simultaneously open queries (0 = engine limit)")
		cells   = flag.Int("cells", 0, "input leaf cells per relation (default engine choice)")

		clock      = flag.String("clock", "virtual", "engine clock: virtual (deterministic) or wall (real-time deadlines)")
		retryAfter = flag.Int("retry-after", 1, "Retry-After header value in seconds on 429/503 rejections")

		maxBuffered = flag.Int("max-buffered", 4096, "per-query delivery-buffer high-water mark in emissions (0 = unbounded)")
		bufPolicy   = flag.String("buffer-policy", "block-executor-never", "past the high-water mark: block-executor-never (coalesce + lag notice) or disconnect-slow (sever the stream)")
		maxBufTotal = flag.Int("max-buffered-total", 65536, "shed new submissions with 503 while aggregate buffered emissions exceed this (0 = never shed)")
		streamWrite = flag.Duration("stream-write-timeout", 30*time.Second, "deadline for each individual result-stream write (0 = none)")

		readHeader = flag.Duration("read-header-timeout", 5*time.Second, "deadline for reading a request's headers")
		idle       = flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")

		role       = flag.String("role", "server", "server (single node), shard (serve one partition of R), or coordinator (scatter/gather across shard nodes)")
		shardIndex = flag.Int("shard-index", 0, "shard role: this node's shard id in [0, shard-count)")
		shardCount = flag.Int("shard-count", 1, "shard role: total shards in the cluster topology")
		partition  = flag.String("partition", "range", "R partition strategy for shard and coordinator roles: range or hash (must match cluster-wide)")

		shardURLs     = flag.String("shards", "", "coordinator: comma-separated shard node base URLs, in shard order")
		localShards   = flag.Int("local-shards", 0, "coordinator: run N in-process shards instead of remote nodes (fast path, one binary)")
		shardRetries  = flag.Int("shard-retries", 2, "coordinator: extra submission attempts per shard on retryable failure (429/5xx/timeout)")
		shardBackoff  = flag.Duration("shard-retry-backoff", 100*time.Millisecond, "coordinator: pause between shard submission attempts")
		shardTimeout  = flag.Duration("shard-timeout", 5*time.Second, "coordinator: per-attempt shard submission deadline")
		gatherTimeout = flag.Duration("gather-timeout", 0, "coordinator: bound on each query's gather phase (0 = none)")
	)
	flag.Parse()

	type daemon interface {
		routes() http.Handler
		drain()
	}
	var srv daemon
	var err error
	fc := frontConfig{RetryAfterSeconds: *retryAfter, StreamWriteTimeout: *streamWrite}
	switch *role {
	case "server", "shard":
		if *role == "shard" && *shardCount < 2 {
			err = fmt.Errorf("shard role needs -shard-count >= 2")
			break
		}
		cfg := serverConfig{
			N: *n, Dims: *dims, Dist: *dist, Sel: *sel, Keys: *keys, Seed: *seed,
			MaxConcurrent: *maxConc, TargetCells: *cells,
			Clock: *clock, MaxBuffered: *maxBuffered, BufferPolicy: *bufPolicy,
			MaxBufferedTotal: *maxBufTotal, frontConfig: fc,
		}
		if *role == "shard" {
			cfg.ShardIndex, cfg.ShardCount, cfg.Partition = *shardIndex, *shardCount, *partition
		}
		srv, err = newServer(cfg)
	case "coordinator":
		srv, err = newCoordinatorDaemon(coordDaemonConfig{
			ShardURLs: *shardURLs, LocalShards: *localShards, Partition: *partition,
			N: *n, Dims: *dims, Dist: *dist, Sel: *sel, Keys: *keys, Seed: *seed,
			TargetCells: *cells, MaxConcurrent: *maxConc,
			Retries: *shardRetries, RetryBackoff: *shardBackoff,
			SubmitTimeout: *shardTimeout, GatherTimeout: *gatherTimeout,
			frontConfig: fc,
		})
	default:
		err = fmt.Errorf("unknown role %q (server, shard or coordinator)", *role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "caqe-serve: %v\n", err)
		os.Exit(1)
	}

	hs := newHTTPServer(*addr, srv.routes(), *readHeader, *idle)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("caqe-serve: %s listening on %s (%d rows, d=%d, %d join conditions, buffer %d/%s)",
		*role, *addr, *n, *dims, *keys, *maxBuffered, *bufPolicy)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "caqe-serve: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		log.Printf("caqe-serve: %v, draining", sig)
	}

	// Drain: stop admitting, run every open query to completion (streams
	// get their tails), then close idle HTTP connections.
	srv.drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("caqe-serve: shutdown: %v", err)
	}
	log.Printf("caqe-serve: drained, bye")
}
