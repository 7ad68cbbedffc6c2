// Command jurytrain trains a Jury actor with TD3 on emulated Table 1
// environments (§3.5/§4) and writes the actor weights as JSON. The weights
// can be loaded back with -eval to run the trained policy on a test link.
//
// Examples:
//
//	jurytrain -epochs 40 -out jury-actor.json
//	jurytrain -eval jury-actor.json -rate 350 -rtt 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/nn"
)

func main() {
	var (
		epochs  = flag.Int("epochs", 40, "training epochs")
		actors  = flag.Int("actors", 8, "parallel experience collectors")
		steps   = flag.Int("steps", 512, "environment steps per actor per epoch")
		updates = flag.Int("updates", 128, "TD3 updates per epoch")
		workers = flag.Int("workers", 1, "goroutines per TD3 update (results are worker-count independent)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "jury-actor.json", "output weights path")
		eval    = flag.String("eval", "", "evaluate a weights file instead of training")
		rate    = flag.Float64("rate", 100, "eval: link rate, Mbps")
		rtt     = flag.Float64("rtt", 30, "eval: base RTT, ms")

		inst = exp.RegisterInstrumentFlags(flag.CommandLine)
	)
	flag.Parse()
	hub, err := inst.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jurytrain:", err)
		os.Exit(1)
	}
	defer hub.Close()

	if *eval != "" {
		if err := evaluate(*eval, *rate*1e6, time.Duration(*rtt)*time.Millisecond, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "jurytrain:", err)
			os.Exit(1)
		}
		return
	}

	opts := core.DefaultTrainOptions(*seed)
	opts.Epochs = *epochs
	opts.Actors = *actors
	opts.StepsPerActor = *steps
	opts.UpdatesPerEpoch = *updates
	opts.UpdateWorkers = *workers
	opts.Progress = func(epoch int, meanReward, tdErr float64) {
		fmt.Printf("epoch %3d  mean reward %8.4f  TD error %8.4f\n", epoch, meanReward, tdErr)
	}
	if hub.Enabled() {
		opts.Observer = hub.Training()
	}
	fmt.Printf("training Jury: %d epochs x %d actors x %d steps (Table 1 domain)\n",
		opts.Epochs, opts.Actors, opts.StepsPerActor)
	agent, res, err := core.TrainPolicy(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jurytrain:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(agent.Actor, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "jurytrain:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "jurytrain:", err)
		os.Exit(1)
	}
	last := res.EpochRewards[len(res.EpochRewards)-1]
	fmt.Printf("done: final epoch mean reward %.4f, weights -> %s\n", last, *out)
}

// evaluate runs a 2-flow fairness check with the trained policy through the
// experiment harness, so -telemetry, -obs and JURY_SIMCHECK apply to it as
// to any figure run.
func evaluate(path string, rateBps float64, rtt time.Duration, seed uint64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var actor nn.MLP
	if err := json.Unmarshal(data, &actor); err != nil {
		return fmt.Errorf("loading %s: %w", path, err)
	}
	// The factory keeps the controller seeds seed+1 and seed+2 instead of
	// Run's per-flow seeds, so the same weights and -seed evaluate to the
	// same numbers across releases.
	jury := func(s uint64) exp.FlowSpec {
		return exp.FlowSpec{Scheme: "jury", CC: func(uint64) cc.Algorithm {
			cfg := core.DefaultConfig()
			cfg.Seed = s
			return core.New(cfg, &core.NNPolicy{Net: &actor})
		}}
	}
	b := jury(seed + 2)
	b.Start = 20 * time.Second
	res, err := exp.Run(exp.Scenario{
		Name:        "jurytrain-eval",
		Rate:        rateBps,
		OneWayDelay: rtt / 2,
		BufferBytes: int(1.5 * rateBps / 8 * rtt.Seconds()),
		Flows:       []exp.FlowSpec{jury(seed + 1), b},
		Horizon:     80 * time.Second,
		Seed:        seed,
	})
	if err != nil {
		return err
	}
	s1, s2 := res.FlowSummaries[0].Stats(), res.FlowSummaries[1].Stats()
	fmt.Printf("trained policy on %.0f Mbps / %v:\n", rateBps/1e6, rtt)
	fmt.Printf("  flow a: %.1f Mbps (avg RTT %.1f ms)\n", s1.AvgThroughputBps/1e6, float64(s1.AvgRTT)/1e6)
	fmt.Printf("  flow b: %.1f Mbps (avg RTT %.1f ms)\n", s2.AvgThroughputBps/1e6, float64(s2.AvgRTT)/1e6)
	fmt.Printf("  link utilization: %.3f\n", res.Utilization)
	if sum := res.Stream; sum != nil {
		fmt.Printf("  streaming fairness: final Jain %.3f (worst window %.3f over %d snapshots)\n",
			sum.FinalJain, sum.MinWindowJain, sum.Snapshots)
	}
	return nil
}
