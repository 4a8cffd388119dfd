// Command bench is the end-to-end serving benchmark. It boots the
// serving stack in-process on loopback — one cntserve replica, or the
// cluster router over two — drives closed-loop load from this one
// process with one client per core, checks sampled answers bit for bit
// against an oracle, and reports per workload the end-to-end metrics
// named in BENCHMARK.json. With -trace 1 a traced pass adds the
// per-layer ledger. README.md documents the workloads, the metrics and
// how to read them.
//
//	bench                                  all four workloads, interleaved
//	bench -workload iv-point -seconds 15   one workload; last line is JSON
//	bench -short                           one 300 ms repetition each
//	bench -out BENCH_e2e.json -spans spans.ndjson
//	bench -agree A.json B.json             do two result files agree?
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"cntfet/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// reps is the number of repetitions per workload; each reported
// end-to-end metric is their median.
const reps = 5

// options is one benchmark run's shape.
type options struct {
	workloads []*workload
	seed      uint64
	reps      int
	warm      time.Duration
	measured  time.Duration // per repetition
	trace     bool
	clients   int
	// short is the smoke run: one short repetition and a tenth of the
	// replay.
	short bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four, interleaved)")
	seed := fs.Uint64("seed", 1, "seed the request bodies are generated from")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload, split over the repetitions")
	trace := fs.Int("trace", 1, "1: add the traced pass and the per-layer metrics; 0: end-to-end metrics only")
	short := fs.Bool("short", false, "smoke run: one 300 ms repetition per workload")
	out := fs.String("out", "", "write the result file (JSON) to this path")
	spans := fs.String("spans", "", "write the traced replay's spans (NDJSON) to this path")
	agreeMode := fs.Bool("agree", false, "compare two result files (-agree A.json B.json) against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agreeMode {
		return runAgree(fs.Args(), stdout, stderr)
	}
	opt, err := newOptions(*name, *seed, *seconds, *trace, *short)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	// Mirror cntserve's defaults: the registry on, the span tracer off.
	telemetry.Enable()
	sp, err := newSpeedProbe(opt.clients)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	runs, err := measure(context.Background(), opt, sp, stderr)
	if cerr := sp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	l := ledger{Provenance: opt.provenance()}
	correct := true
	for _, r := range runs {
		rep := r.report()
		correct = correct && rep.Correct
		l.Workloads = append(l.Workloads, rep)
		printReport(stdout, rep)
	}
	if *out != "" {
		if err := writeLedger(*out, l); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *spans != "" && opt.trace {
		if err := writeSpans(*spans, runs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	verdict := "all answers correct"
	if !correct {
		verdict = "INCORRECT answers or missing oracle coverage"
	}
	p := l.Provenance
	fmt.Fprintf(stdout, "bench: %d workload(s), %d clients, %d x %.3g s repetitions, %d cores (GOMAXPROCS %d), seed %d: %s\n",
		len(runs), p.Clients, p.Reps, p.RepSeconds, p.NProc, p.GOMAXPROCS, p.Seed, verdict)
	if len(l.Workloads) == 1 {
		line, err := resultLine(l.Workloads[0], opt.trace)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !correct {
		return 1
	}
	return 0
}

func newOptions(name string, seed uint64, seconds float64, trace int, short bool) (options, error) {
	opt := options{seed: seed, reps: reps, workloads: workloads, clients: runtime.NumCPU()}
	if name != "" {
		wl, err := workloadNamed(name)
		if err != nil {
			return opt, err
		}
		opt.workloads = []*workload{wl}
	}
	switch trace {
	case 0, 1:
		opt.trace = trace == 1
	default:
		return opt, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if !(seconds > 0) {
		return opt, fmt.Errorf("-seconds must be positive, got %g", seconds)
	}
	if short {
		opt.reps, seconds, opt.short = 1, 0.3, true
	}
	opt.measured = time.Duration(seconds / float64(opt.reps) * float64(time.Second))
	opt.warm = min(time.Second, opt.measured/4)
	// More client goroutines than the scheduler can run at once would
	// measure the load generator's queueing, not the service.
	if procs := runtime.GOMAXPROCS(0); opt.clients > procs {
		return opt, fmt.Errorf("refusing to start %d clients (one per core) with GOMAXPROCS %d", opt.clients, procs)
	}
	return opt, nil
}

func (opt options) provenance() provenance {
	return provenance{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Clients:       opt.clients,
		Reps:          opt.reps,
		RepSeconds:    opt.measured.Seconds(),
		WarmupSeconds: opt.warm.Seconds(),
		Seed:          opt.seed,
		GoVersion:     runtime.Version(),
		Revision:      revision(),
		Traced:        opt.trace,
	}
}

// revision is the VCS revision the binary was built from, with
// "+dirty" for a modified tree; empty when the build carries none.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "" {
		rev += "+dirty"
	}
	return rev
}

// measure runs every repetition, round-robin across the workloads with
// the starting workload rotated each round so machine drift lands on
// all of them alike, then the traced pass of each.
func measure(ctx context.Context, opt options, sp *speedProbe, progress io.Writer) ([]*workloadRun, error) {
	runs := make([]*workloadRun, len(opt.workloads))
	oracles := make([]*oracle, len(opt.workloads))
	for i, wl := range opt.workloads {
		runs[i] = &workloadRun{wl: wl}
		oracles[i] = newOracle()
		if err := oracles[i].remember(ctx, wl.warm(opt.seed)); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	cfg := repConfig{clients: opt.clients, warm: opt.warm, measured: opt.measured, seed: opt.seed, probe: sp}
	n := len(runs)
	for r := range opt.reps {
		for k := range n {
			i := (r + k) % n
			res, err := runRep(ctx, runs[i].wl, oracles[i], cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", runs[i].wl.name, err)
			}
			runs[i].reps = append(runs[i].reps, res)
			fmt.Fprintf(progress, "rep %d/%d %-18s %9.1f req/s  p50 %.3f ms  p99 %.3f ms  setup %.1f ms  failed %d\n",
				r+1, opt.reps, runs[i].wl.name, res.rps, res.p50ms, res.p99ms, 1e3*median(res.setups), res.tally.failed)
		}
	}
	if !opt.trace {
		return runs, nil
	}
	cfg.traced = true
	for i, run := range runs {
		res, err := runRep(ctx, run.wl, oracles[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", run.wl.name, err)
		}
		run.traced = &res
		n := run.wl.replayN
		if opt.short {
			n /= 10
		}
		rs, err := replay(ctx, run.wl, opt.seed, n, sp)
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", run.wl.name, err)
		}
		run.replay = &rs
		fmt.Fprintf(progress, "traced %-18s %9.1f req/s  p50 %.3f ms; replayed %d requests\n",
			run.wl.name, res.rps, res.p50ms, rs.tally.attempted)
	}
	return runs, nil
}

// writeSpans writes every replay's spans as NDJSON, each tagged with
// its workload.
func writeSpans(path string, runs []*workloadRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range runs {
		for _, s := range r.replay.log.spans {
			line := struct {
				Workload string `json:"workload"`
				benchSpan
			}{r.wl.name, s}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func runAgree(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -agree takes two result files")
		return 2
	}
	bf, err := loadBenchmark()
	if err == nil {
		var a, b ledger
		if a, err = readLedger(args[0]); err == nil {
			if b, err = readLedger(args[1]); err == nil {
				var ok bool
				ok, err = agree(bf, a, b, stdout)
				if err == nil && !ok {
					err = errors.New("the two result files disagree")
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "bench: the two result files agree")
	return 0
}
