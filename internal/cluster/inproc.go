package cluster

import (
	"context"
	"fmt"

	"caqe/internal/core"
	"caqe/internal/join"
	"caqe/internal/run"
	"caqe/internal/session"
	"caqe/internal/tuple"
)

// InProcConfig describes an all-in-one-process cluster: one session per
// shard over a partition of R, all in this binary. The fast path — no
// serialization, fully deterministic result sets, race-testable.
type InProcConfig struct {
	Map       ShardMap
	R, T      *tuple.Relation
	JoinConds []join.EquiJoin
	OutDims   []join.MapFunc
	Engine    core.Options
	// MaxConcurrent caps simultaneously open queries per shard session
	// (0 = engine maximum).
	MaxConcurrent int
}

// NewInProcShards partitions R per the shard map and opens one session per
// shard, returning the connections in shard order — ready for
// NewCoordinator. Delivery buffers stay unbounded (the coordinator is the
// only consumer and drains promptly), so gathered streams are lossless.
func NewInProcShards(cfg InProcConfig) ([]ShardConn, error) {
	parts, _ := cfg.Map.Partition(cfg.R)
	conns := make([]ShardConn, len(parts))
	for s := range parts {
		sess, err := session.Open(session.Config{
			R:             parts[s],
			T:             cfg.T,
			JoinConds:     cfg.JoinConds,
			OutDims:       cfg.OutDims,
			Engine:        cfg.Engine,
			MaxConcurrent: cfg.MaxConcurrent,
		})
		if err != nil {
			for _, c := range conns[:s] {
				_ = c.Close()
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		conns[s] = &InProcConn{sess: sess}
	}
	return conns, nil
}

// InProcConn drives one shard session in this process.
type InProcConn struct {
	sess *session.Session
}

// Submit admits the query into the shard session (quota-blind: shards
// never see the global cardinality estimate) and starts execution.
func (c *InProcConn) Submit(spec QuerySpec) (ShardQuery, error) {
	q, err := spec.Query()
	if err != nil {
		return nil, err
	}
	h, err := c.sess.Submit(q, 0)
	if err != nil {
		return nil, err
	}
	_ = c.sess.Start()
	return &inprocQuery{conn: c, h: h}, nil
}

// Close drains and closes the shard session.
func (c *InProcConn) Close() error { return c.sess.Close() }

type inprocQuery struct {
	conn *InProcConn
	h    *session.Handle
}

func (q *inprocQuery) Gather(ctx context.Context) ([]run.Emission, error) {
	evs := q.h.Events()
	var out []run.Emission
	for {
		select {
		case ev, ok := <-evs:
			if !ok {
				return out, nil
			}
			if ev.Lag > 0 {
				// Cannot happen with unbounded buffers, but a configured
				// session could coalesce; a lossy stream is not a local
				// skyline, so surface it as a gather failure.
				return out, fmt.Errorf("cluster: shard stream coalesced %d emissions", ev.Lag)
			}
			out = append(out, ev.Emission)
		case <-ctx.Done():
			q.h.Abandon()
			return out, ctx.Err()
		}
	}
}

func (q *inprocQuery) Cancel() error {
	return q.conn.sess.Cancel(q.h.ID())
}
