package shard

import (
	"fmt"

	"recdb/internal/metrics"
)

// routerMetrics is the router's routing instrument set; the front-end
// instruments (shard.conns_active … shard.panics) are registered by
// internal/frontend beside it. The router owns its own registry (it
// embeds no engine), exported over HTTP exactly like a shard's engine
// registry so one scraper format covers the whole tier.
type routerMetrics struct {
	routedUser *metrics.Counter // statements pinned to one shard by user key
	fanouts    *metrics.Counter // broadcast writes/DDL (all shards)
	scatters   *metrics.Counter // scatter-gather reads
	splits     *metrics.Counter // multi-user INSERTs split across shards
	denied     *metrics.Counter // statements the router refused to route
	retries    *metrics.Counter // per-statement retry attempts
	downErrors *metrics.Counter // statements answered shard_down
}

// shardMetrics is one backend shard's slice of the registry.
type shardMetrics struct {
	routed      *metrics.Counter // statements routed to this shard alone
	fanout      *metrics.Counter // fan-out legs sent to this shard
	retries     *metrics.Counter // retried attempts against this shard
	up          *metrics.Gauge   // 1 healthy, 0 down
	transitions *metrics.Counter // up<->down flips
	poolConns   *metrics.Gauge   // live pooled connections (pool depth)
}

func newRouterMetrics(r *metrics.Registry) routerMetrics {
	return routerMetrics{
		routedUser: r.Counter("shard.routed_user"),
		fanouts:    r.Counter("shard.fanout"),
		scatters:   r.Counter("shard.scatter"),
		splits:     r.Counter("shard.split_inserts"),
		denied:     r.Counter("shard.denied"),
		retries:    r.Counter("shard.retries"),
		downErrors: r.Counter("shard.down_errors"),
	}
}

func newShardMetrics(r *metrics.Registry, i int) shardMetrics {
	return shardMetrics{
		routed:      r.Counter(fmt.Sprintf("shard.%d.routed", i)),
		fanout:      r.Counter(fmt.Sprintf("shard.%d.fanout", i)),
		retries:     r.Counter(fmt.Sprintf("shard.%d.retries", i)),
		up:          r.Gauge(fmt.Sprintf("shard.%d.up", i)),
		transitions: r.Counter(fmt.Sprintf("shard.%d.health_transitions", i)),
		poolConns:   r.Gauge(fmt.Sprintf("shard.%d.pool_conns", i)),
	}
}
