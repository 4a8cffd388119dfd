package main

// probe.go is the machine-speed probe. On a shared machine other
// tenants slow every core for seconds to minutes at a time. On the
// 2-core machine the baseline was recorded on, the median iv-point
// latency of ten 15 s runs spread by 24% between the first and third
// quartile, and a fixed kernel loop ran anywhere from 77k to 140k
// rows/s from one second to the next. So the benchmark measures the
// machine alongside the service: between its load slices it runs a
// miniature served request, a small JSON round trip over loopback HTTP
// in the same lockstep rounds, and it reports each timing scaled to
// referenceSpeed, the probe rate of the baseline machine.
//
// The probe's server and handler are written here on the standard
// library alone, so no change to the repository's code can change what
// it measures.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// referenceSpeed is the probe rate, in round trips per second per
// client, that reported timings are scaled to: about the rate the
// probe ran at on the baseline machine. Any fixed value would do, since
// only ratios between runs matter.
const referenceSpeed = 10_000

// probeQuery and probeAnswer are the miniature request's wire shapes.
type probeQuery struct {
	Kind string  `json:"kind"`
	VG   float64 `json:"vg"`
	VD   float64 `json:"vd"`
}

type probeAnswer struct {
	Kind string    `json:"kind"`
	IDS  []float64 `json:"ids"`
}

func probeHandler(w http.ResponseWriter, r *http.Request) {
	var q probeQuery
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ids := make([]float64, 8)
	for i := range ids {
		ids[i] = q.VG * q.VD * float64(i+1) * 1e-6
	}
	w.Header().Set("Content-Type", "application/json")
	// Past the header an encoding failure has no one to be reported to.
	_ = json.NewEncoder(w).Encode(probeAnswer{Kind: q.Kind, IDS: ids})
}

// speedProbe is the probe's loopback server and its clients.
type speedProbe struct {
	srv     *running
	client  *http.Client
	clients int
	body    []byte
}

func newSpeedProbe(clients int) (*speedProbe, error) {
	srv, err := start(&http.Server{Handler: http.HandlerFunc(probeHandler), ReadHeaderTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(probeQuery{Kind: "iv-point", VG: 0.5, VD: 0.4})
	if err != nil {
		return nil, err
	}
	return &speedProbe{srv: srv, client: newClient(clients), clients: clients, body: body}, nil
}

// rate runs lockstep rounds of round trips for d and returns round
// trips per second per client. A failed round trip does not count.
func (p *speedProbe) rate(ctx context.Context, d time.Duration) float64 {
	bufs := make([]bytes.Buffer, p.clients)
	done := make([]int, p.clients)
	start := time.Now()
	for time.Since(start) < d {
		var wg sync.WaitGroup
		for i := range p.clients {
			wg.Add(1)
			// Returns after its one round trip.
			go func(i int) {
				defer wg.Done()
				if status, err := post(ctx, p.client, p.srv.url, p.body, &bufs[i]); err == nil && status == http.StatusOK {
					done[i]++
				}
			}(i)
		}
		wg.Wait()
	}
	total := 0
	for _, n := range done {
		total += n
	}
	return float64(total) / time.Since(start).Seconds() / float64(p.clients)
}

func (p *speedProbe) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := p.srv.stop(ctx)
	p.client.CloseIdleConnections()
	return err
}

// scaleTime and scaleRate scale a duration or a rate measured at probe
// rate speed to the reference rate.
func scaleTime(t, speed float64) float64 { return t * speed / referenceSpeed }

func scaleRate(r, speed float64) float64 { return r * referenceSpeed / speed }
