// Command cntspice runs a SPICE-flavoured netlist through the MNA
// circuit simulator with CNT transistor devices.
//
//	cntspice deck.cir               run all analyses in the deck
//	cntspice -                      read the deck from stdin
//	cntspice -trace ev.jsonl deck   also write a per-step solver event
//	                                log (JSON lines) to ev.jsonl
//	cntspice -metrics deck          print solver work counters to
//	                                stderr after the run
//
// See internal/netlist for the supported dialect (including the
// ".options trace metrics" deck directive); examples/inverter contains
// a ready-made complementary CNT inverter deck.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"cntfet/internal/engine"
	"cntfet/internal/netlist"
	"cntfet/internal/telemetry"
)

func main() {
	traceFile := flag.String("trace", "", "write solver event log (JSON lines) to this file")
	metrics := flag.Bool("metrics", false, "print solver work counters to stderr after the run")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cntspice [-trace file] [-metrics] <deck.cir|->")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, flag.Arg(0), *traceFile, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "cntspice:", err)
		if errors.Is(err, engine.ErrCanceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, deckArg, traceFile string, metrics bool) (err error) {
	var src []byte
	if deckArg == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(deckArg)
	}
	if err != nil {
		return err
	}
	deck, err := netlist.Parse(string(src))
	if err != nil {
		return err
	}
	if traceFile != "" {
		telemetry.Enable()
		tr := telemetry.NewTracer(1 << 16)
		tr.SetEnabled(true)
		deck.Circuit.SetTrace(tr)
		// The file is written on every exit path: the events of a
		// failed or interrupted deck are the ones that explain it.
		defer func() { err = errors.Join(err, tr.WriteFile(traceFile, os.Stderr)) }()
	}
	if metrics {
		telemetry.Enable()
	}
	if deck.Title != "" {
		fmt.Println("*", deck.Title)
	}
	if _, err := engine.Run(ctx, engine.Request{
		Kind:   engine.Netlist,
		Deck:   deck,
		Output: os.Stdout,
	}); err != nil {
		return err
	}
	if metrics {
		fmt.Fprintln(os.Stderr, "solver metrics:")
		if err := telemetry.Default().WriteText(os.Stderr, "  "); err != nil {
			return err
		}
	}
	return nil
}
