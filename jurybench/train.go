package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rl"
)

// The train workload's fixed budget: 4 epochs of 2 actors × 512 env steps
// and 128 TD3 updates each. One update worker: a second one does not make
// an update faster on two cores, and it makes the update phase wait on
// whichever core is busy elsewhere.
const (
	trainEpochs  = 4
	trainActors  = 2
	trainSteps   = 512
	trainUpdates = 128
	trainWorkers = 1
)

func trainOptions(seed uint64, ob rl.TrainObserver) core.TrainOptions {
	o := core.DefaultTrainOptions(seed)
	o.Epochs, o.Actors, o.StepsPerActor = trainEpochs, trainActors, trainSteps
	o.UpdatesPerEpoch, o.UpdateWorkers = trainUpdates, trainWorkers
	o.Observer = ob
	return o
}

// trainOnce runs the budget and fingerprints the actor weights and the
// per-epoch rewards.
func trainOnce(seed uint64, ob rl.TrainObserver) (time.Duration, string, error) {
	runtime.GC() // the previous budget's garbage is not this one's cost
	start := time.Now()
	agent, tr, err := core.TrainPolicy(trainOptions(seed, ob))
	wall := time.Since(start)
	if err != nil {
		return 0, "", err
	}
	defer agent.Close()
	f := newFingerprint()
	for _, l := range agent.Actor.Layers {
		for _, w := range l.W {
			f.f64(w)
		}
		for _, b := range l.B {
			f.f64(b)
		}
	}
	for _, r := range tr.EpochRewards {
		f.f64(r)
	}
	return wall, f.sum(), nil
}

// trainSetup builds what a training run starts from: the TD3 agent with
// TrainPolicy's shape and worker count, and one reset environment per
// actor.
func trainSetup(seed uint64) error {
	env := core.DefaultEnvConfig(seed)
	c := rl.DefaultConfig(env.Jury.StateDim(), 2)
	c.Seed, c.Workers = seed, trainWorkers
	agent := rl.NewTD3(c)
	defer agent.Close()
	for a := 0; a < trainActors; a++ {
		ec := env
		ec.Seed = seed ^ uint64(a+1)*0x9e3779b97f4a7c15
		if s := core.NewTrainingEnv(ec).Reset(); len(s) != env.Jury.StateDim() {
			return fmt.Errorf("training env state has %d values, want %d", len(s), env.Jury.StateDim())
		}
	}
	return nil
}

// runTrain is the train workload: the fixed budget, repeated.
func runTrain(cfg config) (*result, error) {
	if cfg.trace {
		return traceTrain(cfg)
	}
	res := newResult()
	setup, err := medianSetup(setupReps, func() (time.Duration, error) {
		start := time.Now()
		err := trainSetup(cfg.seed)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	var walls []float64
	var first string
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < cfg.seconds {
		wall, fp, err := trainOnce(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		res.checks.op(1)
		if first == "" {
			first = fp
			if err := checkReference(&res.checks, "train", cfg.seed, fp, 1); err != nil {
				return nil, err
			}
			continue
		}
		res.checks.expect(fp == first, 1, "training run %d differs from the first run of the seed", len(walls))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	trainS := median(walls)

	res.endToEnd["setup_s"] = setup
	res.endToEnd["peak_rss_mb"] = rss
	res.endToEnd["op_ms"] = trainS * 1e3
	res.endToEnd["rate_per_s"] = trainEpochs * trainActors * trainSteps / trainS
	res.name("train_s", "s", "lower", trainS)
	res.name("fail_frac", "share", "lower", res.checks.failFrac())
	return res, nil
}

// epochSpans turns the training loop's per-epoch phase timings into spans.
type epochSpans struct {
	tr              *tracer
	parent          int
	collect, update time.Duration
	skipped         int64
}

func (e *epochSpans) EpochEnd(epoch int, meanReward, tdErr float64, replayLen int, skipped int64, collectDur, updateDur time.Duration) {
	end := time.Now()
	e.tr.record(fmt.Sprintf("epoch:%d:collect", epoch), e.parent, end.Add(-updateDur-collectDur), end.Add(-updateDur), nil)
	e.tr.record(fmt.Sprintf("epoch:%d:update", epoch), e.parent, end.Add(-updateDur), end, map[string]float64{"replay_len": float64(replayLen)})
	e.collect += collectDur
	e.update += updateDur
	e.skipped = skipped
}

func (e *epochSpans) CheckpointSaved(int, time.Duration) {}

// traceTrain is the traced train run: one budget without an observer for
// reference, then one whose epoch phases become spans.
func traceTrain(cfg config) (*result, error) {
	res := newResult()
	m := res.perLayer
	zeroLayers(m)
	tr := cfg.tr
	root := tr.begin("train", 0)
	id := tr.begin("budget:untraced", root)
	plainWall, plainFP, err := trainOnce(cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	tr.end(id, nil)
	res.checks.op(1)
	if err := checkReference(&res.checks, "train", cfg.seed, plainFP, 1); err != nil {
		return nil, err
	}

	id = tr.begin("budget:traced", root)
	ob := &epochSpans{tr: tr, parent: id}
	wall, fp, err := trainOnce(cfg.seed, ob)
	if err != nil {
		return nil, err
	}
	tr.end(id, nil)
	tr.end(root, nil)
	res.checks.op(1)
	res.checks.expect(fp == plainFP, 1, "the training observer changed the trained policy")

	m["rl.collect_s"] = ob.collect.Seconds()
	m["rl.update_s"] = ob.update.Seconds()
	m["rl.env_steps_per_s"] = trainEpochs * trainActors * trainSteps / ob.collect.Seconds()
	m["rl.updates_per_s"] = trainEpochs * trainUpdates / ob.update.Seconds()
	m["rl.skipped_updates"] = float64(ob.skipped)
	m["trace.overhead_ratio"] = wall.Seconds() / plainWall.Seconds()
	return res, nil
}
