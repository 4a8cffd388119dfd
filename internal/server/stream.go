// stream.go is the chunked-NDJSON half of the job endpoint: the same
// jobs as the buffered JSON path, but every result row leaves the
// server the moment the engine emits it. A client asking for a stream
// (the "stream" request field, or "Accept: application/x-ndjson")
// reads one JSON object per line:
//
//	{"row":{"index":0,"vg":0.3,"vds":[...],"ids":[...]}}
//	{"row":{"index":1,...}}
//	...
//	{"done":{"kind":"family-sweep","metrics":{...},"elapsed_ns":...}}
//
// Rows arrive in result order (the sweep layer re-orders the parallel
// scheduler's out-of-order chunks) and carry bit-for-bit the same
// currents the buffered Result.Family would — the "done" frame
// deliberately omits the families so nothing is buffered or sent
// twice. Every frame is flushed individually: backpressure is the
// client connection itself (a slow reader stalls the emitting sweep
// worker), and a disconnected client fails the next write, which
// cancels the job promptly (HTTP 499 in the job log, server.canceled
// moves). Failures after the first row cannot change the HTTP status
// — the 200 left with that row — so they arrive as an "error" frame.
package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"cntfet/internal/engine"
	"cntfet/internal/telemetry"
)

// StreamRow is the wire form of one streamed result row: a Curve plus
// its position. Ref marks the reference family of an rms-compare
// (reference rows stream first).
type StreamRow struct {
	Index int       `json:"index"`
	Ref   bool      `json:"ref,omitempty"`
	VG    float64   `json:"vg"`
	VDS   []float64 `json:"vds"`
	IDS   []float64 `json:"ids"`
}

// StreamMC is one streamed Monte Carlo checkpoint: running mean and
// standard deviation over the first Done of Total samples.
type StreamMC struct {
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
}

// StreamFrame is one line of a streamed response. Exactly one field
// is set: result rows and checkpoints while the job runs, then either
// a final "done" (the JobResponse summary, families and Monte Carlo
// samples omitted — they already streamed) or an "error".
type StreamFrame struct {
	Row   *StreamRow     `json:"row,omitempty"`
	MC    *StreamMC      `json:"mc,omitempty"`
	Done  *JobResponse   `json:"done,omitempty"`
	Error *ErrorResponse `json:"error,omitempty"`
}

// wantsStream reports whether the request asked for NDJSON streaming.
func wantsStream(jr JobRequest, r *http.Request) bool {
	if jr.Stream {
		return true
	}
	for _, accept := range r.Header.Values("Accept") {
		if mediaTypeIsNDJSON(accept) {
			return true
		}
	}
	return false
}

// mediaTypeIsNDJSON matches an Accept header value against
// application/x-ndjson, tolerating parameters and lists.
func mediaTypeIsNDJSON(accept string) bool {
	for _, item := range strings.Split(accept, ",") {
		item, _, _ = strings.Cut(item, ";")
		if strings.TrimSpace(item) == "application/x-ndjson" {
			return true
		}
	}
	return false
}

// ndjsonSink adapts the response writer into an engine.Sink: encode
// one frame per event, write it, flush, count. Emit runs on the job's
// emitting goroutine; a write or flush failure (client gone) aborts the
// job through the sink-error path.
type ndjsonSink struct {
	w    io.Writer
	rc   *http.ResponseController
	j    jsonBuf // frame buffer; its grid memo spans frames
	rows int64
}

func (s *ndjsonSink) Emit(ev engine.Event) error {
	var frame StreamFrame
	switch {
	case ev.Row != nil:
		frame.Row = &StreamRow{
			Index: ev.Row.Index,
			Ref:   ev.Row.Ref,
			VG:    ev.Row.Curve.VG,
			VDS:   ev.Row.Curve.VDS,
			IDS:   ev.Row.Curve.IDS,
		}
	case ev.MC != nil:
		frame.MC = &StreamMC{Done: ev.MC.Done, Total: ev.MC.Total, Mean: ev.MC.Mean, Std: ev.MC.Std}
	default:
		return nil
	}
	if err := s.send(&frame); err != nil {
		return err
	}
	s.rows++
	telemetry.Default().Counter(telemetry.KeyServerStreamRows).Inc()
	return nil
}

// send encodes one frame and flushes it out.
func (s *ndjsonSink) send(f *StreamFrame) error {
	if err := s.encode(f); err != nil {
		return err
	}
	return s.flush()
}

// encode replaces the buffered frame with f. On failure nothing is
// buffered for flush to send.
func (s *ndjsonSink) encode(f *StreamFrame) error {
	s.j.b, s.j.err = s.j.b[:0], nil
	s.j.streamFrame(f)
	if s.j.err != nil {
		s.j.b = s.j.b[:0]
		return s.j.err
	}
	// The next frame reuses the buffer; keep the grid memo's bytes.
	s.j.ownGrid()
	return nil
}

// flush sends the buffered frame in one Write and flushes it out.
func (s *ndjsonSink) flush() error {
	if _, err := s.w.Write(s.j.b); err != nil {
		return err
	}
	return s.rc.Flush()
}

// streamJob runs one job with its results streaming out as NDJSON.
// Called from handleJob after decode/resolve; the engine runs on this
// goroutine (and its sweep workers), emitting through the sink.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, jr JobRequest, req engine.Request, meta resolveMeta) {
	ctx := r.Context()
	reg := telemetry.Default()
	reg.Counter(telemetry.KeyServerStreamRequests).Inc()
	telemetry.SpanFrom(ctx).Set(telemetry.Bool(telemetry.AttrStream, true))

	w.Header().Set("Content-Type", "application/x-ndjson")
	// The trace ID rides a header so streaming clients can correlate
	// their frames with the server's logs without parsing them.
	if tid := telemetry.TraceIDFrom(ctx); tid != "" {
		w.Header().Set("Trace-Id", tid)
	}
	w.WriteHeader(http.StatusOK)

	buf := getEncodeBuf()
	sink := &ndjsonSink{w: w, rc: http.NewResponseController(w), j: jsonBuf{b: *buf}}
	defer func() {
		*buf = sink.j.b
		putEncodeBuf(buf)
	}()
	req.Sink = sink
	_, span := telemetry.StartSpan(ctx, telemetry.SpanServerStream)
	res, err := engine.Run(ctx, req)
	span.Set(telemetry.Int(telemetry.AttrRows, sink.rows))
	if err == nil {
		// Rows already streamed; the done frame is summary only. (A
		// streamed family-sweep Result carries no family anyway — the
		// engine skips buffering when a sink is set — but rms-compare
		// buffers both families for the RMS computation, and Monte Carlo
		// retains its samples for the percentiles.) It is encoded before
		// the job is logged, so a summary JSON cannot spell (a NaN
		// statistic) ends the stream with a numerical error frame
		// instead of no frame at all.
		done := toWire(jr.Kind, res)
		done.Family = nil
		done.RefFamily = nil
		if done.MC != nil {
			mc := *done.MC
			mc.Samples = nil
			done.MC = &mc
		}
		if err = sink.encode(&StreamFrame{Done: &done}); err != nil {
			err = fmt.Errorf("server: encoding %s done frame: %w", jr.Kind, err)
		}
	}
	if err != nil {
		status, class := statusOf(err)
		if status == StatusClientClosedRequest {
			reg.Counter(telemetry.KeyServerCanceled).Inc()
		} else {
			reg.Counter(telemetry.KeyServerErrors).Inc()
		}
		span.Set(telemetry.String(telemetry.AttrError, err.Error()))
		span.End()
		s.logJob(ctx, jr.Kind, meta, status, res)
		// The 200 and any rows are already on the wire; the failure
		// travels in-band. Undeliverable when the client is the reason.
		_ = sink.send(&StreamFrame{Error: &ErrorResponse{Error: err.Error(), Class: class}})
		return
	}
	span.End()
	s.logJob(ctx, jr.Kind, meta, http.StatusOK, res)
	_ = sink.flush() // the done frame; undeliverable if the client left
}
