// proxy.go is the data plane: one job in, one replica chain tried,
// one response relayed. The router buffers the (bounded) request body
// so it can replay it on retry, decodes just enough of it to compute
// the canonical model key, and walks the key's rendezvous order —
// healthy replicas first, then (failing open) the ones probing marked
// down. A replica answering, even with a job error like 400 or 422, is
// the answer: those statuses are deterministic properties of the
// request, not of the replica. Only transport failures, 5xx and 429
// move on to the next replica, with capped exponential backoff between
// attempts. Every job is a pure computation, so retrying is safe by
// construction.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

// ReplicaHeader names the response header carrying the base URL of
// the replica that served a routed job — the observable half of the
// affinity contract, and what the fleet tests assert on.
const ReplicaHeader = "Cntshard-Replica"

// errorResponse mirrors the backend's error body shape so router-made
// errors (413, 502) read the same as replica-made ones.
type errorResponse struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// handleJob is POST /v1/jobs: buffer, key, rank, try replicas in
// order, relay the first real answer.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	reg := telemetry.Default()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{
			Error: fmt.Sprintf("cluster: reading request body: %v", err),
			Class: "invalid-request",
		})
		return
	}

	key := routeKey(body)

	order := rt.rank(key)
	home := order[0]
	attempts := 0
	for _, rep := range healthyFirst(order) {
		if attempts >= rt.cfg.Retries {
			break
		}
		if attempts > 0 {
			reg.Counter(telemetry.KeyClusterRouteRetries).Inc()
			if !rt.backoff(r.Context(), attempts) {
				break // client gone mid-backoff; nothing left to answer
			}
		}
		attempts++
		done, retryable := rt.proxy(w, r, rep, body)
		if done {
			if rep == home {
				reg.Counter(telemetry.KeyClusterRouteLocalHit).Inc()
			} else {
				reg.Counter(telemetry.KeyClusterRouteFailover).Inc()
			}
			return
		}
		if !retryable {
			return
		}
	}
	reg.Counter(telemetry.KeyClusterRouteErrors).Inc()
	writeJSON(w, http.StatusBadGateway, errorResponse{
		Error: fmt.Sprintf("cluster: no replica answered for key %s (%d tried)", key, attempts),
		Class: "unavailable",
	})
}

// routeKey is server.RouteKey of the body's JobRequest, decoding only
// the two fields the key reads: a sweep's grids and curves are the
// replica's to decode (the hand decoder skips them without
// allocating), not the router's. Schema enforcement stays the
// backend's job. A body json.Unmarshal would reject routes by the
// partial fill json.Unmarshal leaves — the zero request's key when it
// does not even parse — and comes back as the backend's 400. Either
// way the key is the one a full decode gives (FuzzRouteKey).
func routeKey(body []byte) string {
	jr, ok := server.DecodeKeyFields(body)
	if !ok {
		var partial struct {
			Kind  string            `json:"kind"`
			Model *server.ModelSpec `json:"model"`
		}
		_ = json.Unmarshal(body, &partial)
		jr = server.JobRequest{Kind: partial.Kind, Model: partial.Model}
	}
	return server.RouteKey(jr)
}

// healthyFirst reorders a rendezvous ranking so in-rotation replicas
// come first, preserving rank within each half. The unhealthy tail
// keeps the router failing open: when probing has everything marked
// down (a mass restart, a partition healing), jobs still try the
// chain instead of 502ing on a stale view.
func healthyFirst(order []*replica) []*replica {
	out := make([]*replica, 0, len(order))
	for _, rep := range order {
		if rep.healthy() {
			out = append(out, rep)
		}
	}
	for _, rep := range order {
		if !rep.healthy() {
			out = append(out, rep)
		}
	}
	return out
}

// backoff sleeps the capped exponential delay before retry n (n >= 1),
// reporting false if the client's context ended first.
func (rt *Router) backoff(ctx context.Context, n int) bool {
	d := rt.cfg.Backoff << (n - 1)
	if max := 10 * rt.cfg.Backoff; d > max {
		d = max
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// proxy tries one replica. done means a response was relayed to the
// client (success or a deterministic job error — either way the job is
// answered); retryable means nothing was written and the next replica
// in hash order may be tried. A transport failure marks the replica
// out of rotation immediately; the probe loop readmits it.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, rep *replica, body []byte) (done, retryable bool) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, rep.base+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false, true
	}
	copyHeaders(req.Header, r.Header)
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		// The request context ending is the client hanging up, not the
		// replica failing: stop routing, change nothing about health.
		if r.Context().Err() != nil {
			return false, false
		}
		rep.setHealthy(false)
		return false, true
	}
	if resp.StatusCode >= http.StatusInternalServerError || resp.StatusCode == http.StatusTooManyRequests {
		// A saturated or failing replica: drain for connection reuse and
		// move down the chain. 429 is load, not death — health untouched.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			rep.setHealthy(false)
		}
		return false, true
	}
	defer resp.Body.Close()

	copyHeaders(w.Header(), resp.Header)
	w.Header().Set(ReplicaHeader, rep.base)
	w.WriteHeader(resp.StatusCode)
	// Relay with a flush per read so streamed NDJSON frames reach the
	// client as the backend emits them; for buffered JSON the extra
	// flushes are harmless. A mid-stream error is past the point of
	// retry — the client sees the truncation, exactly as if it had been
	// connected to the replica directly.
	flushCopy(w, resp.Body)
	return true, false
}

// relayBufs recycles flushCopy's relay buffers across requests.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// flushCopy copies upstream bytes to the client, flushing after every
// chunk.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	rc := http.NewResponseController(w)
	bp := relayBufs.Get().(*[32 << 10]byte)
	defer relayBufs.Put(bp)
	buf := bp[:]
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			// Flush errors only mean the writer cannot flush; the copy
			// itself decides when the relay ends.
			_ = rc.Flush()
		}
		if err != nil {
			return
		}
	}
}

// hopByHop are the connection-scoped headers a proxy must not
// forward (RFC 9110 §7.6.1).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = vs
	}
	for _, k := range hopByHop {
		dst.Del(k)
	}
	// The router re-frames the body itself.
	dst.Del("Content-Length")
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}
