// Command jurysim runs an ad-hoc emulated scenario: one bottleneck link,
// any mix of congestion-control schemes, and prints per-flow results.
//
// Examples:
//
//	jurysim -scheme jury -rate 100 -rtt 30 -flows 3 -duration 120
//	jurysim -scheme cubic,jury -rate 50 -rtt 40 -loss 0.005
//
// The "faults" subcommand runs the robustness table instead: every scheme
// under every deterministic fault case (burst loss, reordering, duplication,
// jitter, link flaps, combined), with fairness, utilization, and
// graceful-degradation counters per cell:
//
//	jurysim faults -schemes jury,bbr,cubic -rate 60 -rtt 30 -flows 3 -duration 60
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// setupInstruments builds the hub and streaming observer from the shared
// instrumentation flags and installs them on the experiment harness. The
// caller must Close the hub before exiting so the trace buffer flushes.
func setupInstruments(f *exp.InstrumentFlags) *telemetry.Hub {
	hub, err := f.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jurysim:", err)
		os.Exit(1)
	}
	return hub
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "faults" {
		runFaults(os.Args[2:])
		return
	}
	var (
		schemes  = flag.String("scheme", "jury", "comma-separated schemes; a single name is replicated -flows times")
		rateMbps = flag.Float64("rate", 100, "bottleneck capacity, Mbps")
		rttMS    = flag.Float64("rtt", 30, "base round-trip time, ms")
		lossRate = flag.Float64("loss", 0, "random loss fraction, e.g. 0.001")
		bufBDP   = flag.Float64("buffer", 1.5, "buffer size in BDP multiples")
		flows    = flag.Int("flows", 1, "number of flows when -scheme is a single name")
		stagger  = flag.Duration("stagger", 0, "delay between consecutive flow starts")
		duration = flag.Duration("duration", 60*time.Second, "simulation horizon")
		seed     = flag.Uint64("seed", 1, "random seed")
		series   = flag.Bool("series", false, "print 1-second throughput series per flow")
		csvPath  = flag.String("csv", "", "write per-flow time series as CSV to this path")
		shards   = flag.Int("shards", 1, "max shards for space-parallel execution (1 = sequential; results are shard-count independent)")

		inst = exp.RegisterInstrumentFlags(flag.CommandLine)

		daemonAddr = flag.String("daemon-addr", "", "drive jury flows from a juryserve inference daemon at this address (AIMD-safe fallback on failure)")
	)
	flag.Parse()
	hub := setupInstruments(inst)
	defer hub.Close()
	exp.DefaultShards = *shards

	names := strings.Split(*schemes, ",")
	if len(names) == 1 && *flows > 1 {
		single := names[0]
		names = nil
		for i := 0; i < *flows; i++ {
			names = append(names, single)
		}
	}

	s := exp.Scenario{
		Name:        "jurysim",
		Rate:        *rateMbps * 1e6,
		OneWayDelay: time.Duration(*rttMS/2) * time.Millisecond,
		LossRate:    *lossRate,
		Horizon:     *duration,
		Seed:        *seed,
	}
	s.BufferBytes = s.BufferBDP(*bufBDP)
	var clients []*agentrpc.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for i, name := range names {
		spec := exp.FlowSpec{
			Scheme: strings.TrimSpace(name),
			Start:  time.Duration(i) * *stagger,
		}
		// Each daemon-driven jury flow gets its own client (one connection,
		// one tenant label) with the AIMD-safe fallback, so a daemon outage
		// degrades the flow instead of freezing it.
		if *daemonAddr != "" && spec.Scheme == "jury" {
			cl, err := agentrpc.DialConfig(*daemonAddr, core.AIMDPolicy{}, agentrpc.ClientConfig{
				Timeout: 10 * time.Second, // simulated time outruns wall time; don't fall back on scheduler hiccups
				Tenant:  fmt.Sprintf("jurysim-flow-%d", i),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "jurysim: daemon dial:", err)
				os.Exit(1)
			}
			cl.SetLatencyHook(hub.RPCClientHook())
			clients = append(clients, cl)
			spec.CC = func(seed uint64) cc.Algorithm {
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				return core.New(cfg, cl)
			}
		}
		s.Flows = append(s.Flows, spec)
	}

	res, err := exp.Run(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jurysim:", err)
		os.Exit(1)
	}

	fmt.Printf("link: %.1f Mbps, %.0f ms RTT, %.2f%% loss, %d B buffer — utilization %.3f\n",
		*rateMbps, *rttMS, *lossRate*100, s.BufferBytes, res.Utilization)
	var shares []float64
	rows := make([][]string, 0, len(res.Flows))
	for _, f := range res.Flows {
		st := f.Stats()
		shares = append(shares, st.AvgThroughputBps)
		rows = append(rows, []string{
			f.Name(),
			exp.FmtMbps(st.AvgThroughputBps),
			fmt.Sprintf("%.1f", float64(st.AvgRTT)/1e6),
			fmt.Sprintf("%.1f", float64(st.MinRTT)/1e6),
			fmt.Sprintf("%.3f%%", st.LossRate*100),
		})
	}
	fmt.Print(exp.FormatTable([]string{"flow", "Mbps", "avgRTT(ms)", "minRTT(ms)", "loss"}, rows))
	if len(res.Flows) > 1 {
		fmt.Printf("Jain index (lifetime means): %.3f\n", metrics.JainIndex(shares))
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jurysim:", err)
			os.Exit(1)
		}
		if err := report.WriteFlowSeriesCSV(f, res.Flows); err != nil {
			fmt.Fprintln(os.Stderr, "jurysim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "jurysim:", err)
			os.Exit(1)
		}
		fmt.Printf("series written to %s\n", *csvPath)
	}

	if *series {
		printSeries(res)
	}
}

// runFaults is the `jurysim faults` subcommand: the robustness table of
// EXPERIMENTS.md (every scheme × every fault case, run checked and in
// parallel).
func runFaults(args []string) {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	var (
		schemes  = fs.String("schemes", "jury,bbr,cubic", "comma-separated schemes to stress")
		rateMbps = fs.Float64("rate", 60, "bottleneck capacity, Mbps")
		rttMS    = fs.Float64("rtt", 30, "base round-trip time, ms")
		flows    = fs.Int("flows", 3, "homogeneous flows per scenario")
		duration = fs.Duration("duration", 60*time.Second, "simulation horizon")
		seed     = fs.Uint64("seed", 1, "random seed")

		inst = exp.RegisterInstrumentFlags(fs)
	)
	fs.Parse(args)
	hub := setupInstruments(inst)
	defer hub.Close()

	o := exp.RobustnessOptions{
		Rate:     *rateMbps * 1e6,
		OneWay:   time.Duration(*rttMS/2) * time.Millisecond,
		Flows:    *flows,
		Lifetime: *duration,
		Seed:     *seed,
	}
	for _, name := range strings.Split(*schemes, ",") {
		if name = strings.TrimSpace(name); name != "" {
			o.Schemes = append(o.Schemes, name)
		}
	}
	rows, err := exp.RobustnessTable(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jurysim:", err)
		os.Exit(1)
	}
	fmt.Printf("robustness table: %.1f Mbps, %.0f ms RTT, %d flows, %v, seed %d (all runs invariant-checked)\n",
		*rateMbps, *rttMS, *flows, *duration, *seed)
	fmt.Print(exp.FormatRobustnessTable(rows))
}

func printSeries(res *exp.RunResult) {
	for _, f := range res.Flows {
		fmt.Printf("\n%s throughput (Mbps) per second:\n", f.Name())
		var acc float64
		var n int
		next := time.Second
		for _, p := range f.Series() {
			acc += p.ThroughputBps
			n++
			if p.T >= next {
				fmt.Printf("  t=%3ds %8.2f\n", int(next.Seconds()), acc/float64(n)/1e6)
				acc, n = 0, 0
				next += time.Second
			}
		}
	}
}
