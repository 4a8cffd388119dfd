// Package cluster is the routing front-end of a cntserve fleet: a
// stdlib-only reverse proxy that sends every job to the replica that
// owns its model. The paper's economics make the per-(family, device,
// T, EF) charge representation the expensive object — everything
// downstream of a built table or piecewise fit is cheap — so at fleet
// scale the goal is one build per model key fleet-wide, not one per
// replica. Random load balancing gives O(replicas) builds per key;
// key-affinity routing gives O(1).
//
// The affinity is rendezvous (highest-random-weight) hashing over the
// canonical model key the server itself caches on (server.RouteKey —
// router and backend share the function, so they can never disagree
// about identity). Each replica scores fnv64a(replica + NUL + key);
// descending score order is the key's preference list: the top replica
// is its home, the rest a deterministic failover chain. Rendezvous
// needs no ring state, no coordination, and minimal key movement when
// the replica set changes — with R replicas, removing one reassigns
// only that replica's keys.
//
// The router proxies both buffered JSON and streamed NDJSON responses
// (flushing frame by frame), propagates client disconnects upstream
// through the request context, retries down/5xx/429 replicas along the
// hash order with capped backoff, health-checks replicas actively with
// jittered probes so a recovered replica re-enters rotation without a
// restart, and exposes its own /healthz and Prometheus /metrics
// (cluster.route.* counters and per-replica health gauges).
package cluster

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cntfet/internal/telemetry"
)

// Config tunes a Router. Replicas is the only required field.
type Config struct {
	// Replicas are the backend base URLs ("http://host:port"), one per
	// cntserve process. Order is cosmetic — routing depends only on the
	// URL strings — but indices into this slice name the replicas in
	// metrics and health output.
	Replicas []string
	// Client performs the upstream requests. Nil means a client with no
	// overall timeout (streamed responses are open-ended; per-request
	// deadlines belong to the backend) on a clone of Go's default
	// transport whose per-replica idle pool is as large as its total
	// one, so concurrent jobs reuse their connections instead of
	// re-dialling.
	Client *http.Client
	// MaxBody caps the request body the router will buffer for routing
	// and replay. Zero means 1 MiB, matching the backend default.
	MaxBody int64
	// Retries caps how many replicas one job may try (first attempt
	// included). Zero means all of them; 1 disables failover.
	Retries int
	// Backoff is the delay before the second attempt, doubling per
	// further attempt and capped at 10x. Zero means 50ms.
	Backoff time.Duration
	// ProbeInterval is the active health-check period; each cycle is
	// jittered ±25% so a fleet of routers does not probe in lockstep.
	// Zero means 2s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe. Zero means 1s.
	ProbeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		// A replica admits GOMAXPROCS jobs at once; Go's default of two
		// idle connections per host would close all but two of them
		// after each burst and dial them again for the next.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = tr.MaxIdleConns
		c.Client = &http.Client{Transport: tr}
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.Retries <= 0 {
		c.Retries = len(c.Replicas)
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	return c
}

// replica is one backend and the router's view of its health. Health
// flips passively (a transport error during a proxy marks it down) and
// actively (the probe loop marks it down or back up), mirrored into a
// per-replica gauge for /metrics.
type replica struct {
	index int
	base  string
	down  atomic.Bool
	gauge *telemetry.Gauge
}

func (r *replica) healthy() bool { return !r.down.Load() }

func (r *replica) setHealthy(up bool) {
	r.down.Store(!up)
	v := int64(0)
	if up {
		v = 1
	}
	r.gauge.Set(v)
}

// Router routes jobs across a static replica set. Create one with
// New; serve its Handler; start active health checking with
// StartProbes.
type Router struct {
	cfg      Config
	replicas []*replica
	mux      *http.ServeMux
	start    time.Time
}

// New builds a Router over the replica set.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{cfg: cfg, start: time.Now()}
	reg := telemetry.Default()
	// Register the route counters up front, so a fresh router's
	// /metrics carries them at zero before the first failover or error.
	reg.Counter(telemetry.KeyClusterRouteLocalHit)
	reg.Counter(telemetry.KeyClusterRouteFailover)
	reg.Counter(telemetry.KeyClusterRouteRetries)
	reg.Counter(telemetry.KeyClusterRouteErrors)
	seen := map[string]bool{}
	for i, base := range cfg.Replicas {
		base = strings.TrimRight(base, "/")
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			base = "http://" + base
		}
		if u, err := url.Parse(base); err != nil || u.Host == "" {
			return nil, fmt.Errorf("cluster: replica %d (%q) is not a host[:port] or base URL", i, cfg.Replicas[i])
		}
		if seen[base] {
			return nil, fmt.Errorf("cluster: duplicate replica %s", base)
		}
		seen[base] = true
		rep := &replica{
			index: i,
			base:  base,
			gauge: reg.Gauge(fmt.Sprintf(telemetry.KeyClusterReplicaHealthyFmt, i)),
		}
		// Optimistic start: every replica is in rotation until a probe or
		// a failed proxy says otherwise, so the router serves immediately.
		rep.setHealthy(true)
		rt.replicas = append(rt.replicas, rep)
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleJob)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		if err := telemetry.Default().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	rt.mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := telemetry.Default().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return rt, nil
}

// Handler is the router's route table: POST /v1/jobs proxies to the
// fleet, GET /healthz reports the router's replica view, GET /metrics
// and /metrics.json serve the process telemetry registry.
func (rt *Router) Handler() http.Handler { return rt.mux }

// rank returns the replicas in the key's rendezvous preference order:
// descending fnv64a(base + NUL + key), index ascending on the
// (practically impossible) tie. rank(key)[0] is the key's home
// replica; the rest are its deterministic failover chain. The order
// depends only on the replica URL strings and the key bytes, so every
// router over the same replica set computes the same homes.
func (rt *Router) rank(key string) []*replica {
	type scored struct {
		rep   *replica
		score uint64
	}
	order := make([]scored, len(rt.replicas))
	for i, rep := range rt.replicas {
		h := fnv.New64a()
		h.Write([]byte(rep.base))
		h.Write([]byte{0})
		h.Write([]byte(key))
		order[i] = scored{rep: rep, score: h.Sum64()}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].rep.index < order[j].rep.index
	})
	out := make([]*replica, len(order))
	for i, s := range order {
		out[i] = s.rep
	}
	return out
}

// Health is the router's GET /healthz body: overall status plus the
// per-replica view active probing maintains.
type Health struct {
	// Status is "ok" while at least one replica is in rotation,
	// "degraded" otherwise (the router still fails open and tries).
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptime_s"`
	Replicas      []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one replica's row in the router health report.
type ReplicaHealth struct {
	Index   int    `json:"index"`
	Base    string `json:"base"`
	Healthy bool   `json:"healthy"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "degraded", UptimeSeconds: time.Since(rt.start).Seconds()}
	for _, rep := range rt.replicas {
		up := rep.healthy()
		if up {
			h.Status = "ok"
		}
		h.Replicas = append(h.Replicas, ReplicaHealth{Index: rep.index, Base: rep.base, Healthy: up})
	}
	writeJSON(w, http.StatusOK, h)
}
