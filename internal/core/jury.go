package core

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/simcore"
)

// Jury is the full controller: signal transformation → policy decision
// range → occupancy post-processing → multiplicative cwnd/pacing update.
// It implements cc.IntervalAlgorithm and can run against any policy — a
// trained actor (NNPolicy), the deterministic ReferencePolicy, or a
// training harness (capturedPolicy via NewTrainable).
type Jury struct {
	cfg    Config
	policy Policy
	rng    *simcore.RNG

	transformer *Transformer
	occ         *OccupancyEstimator

	cwnd   float64
	pacing float64
	mss    float64

	minRTT      time.Duration
	lossMin     float64
	haveLossMin bool
	lastGrowAt  time.Duration

	// Introspection for training, experiments, and tests. lastState is a
	// buffer reused across intervals: it always holds the *most recent*
	// policy input, and holders of an older return value from LastState
	// observe the refreshed contents, not a snapshot.
	lastSignals Signals
	lastState   []float64
	lastMu      float64
	lastDelta   float64
	lastAction  float64
	lastReward  float64
	lastOcc     float64
	intervals   int64

	// Non-finite guard counters (see decide and applyAction): a congestion
	// controller facing an adversarial network must never let NaN/Inf drive
	// the window, it degrades to plain AIMD instead — the same shape as the
	// agentrpc client falling back to a local policy on transport failure.
	// These two are atomics so the streaming observer can read them at
	// snapshot boundaries of a sharded run, on another shard's worker.
	degradedDecisions atomic.Int64
	nonfiniteActions  atomic.Int64

	// Decision-range trace (EnableRangeTrace): one point per control
	// interval in which the policy was consulted. The metamorphic tests in
	// internal/simcheck compare these trajectories across environments —
	// bandwidth-agnostic signals must make them invariant under bandwidth
	// scaling (§4, Eq. 5–7).
	rangeTrace    []RangePoint
	rangeTraceCap int
}

// RangePoint is one recorded policy decision: the interval it was taken in,
// the decision range (μ, δ), the flow's occupancy estimate, and the
// post-processed action that was applied.
type RangePoint struct {
	Interval  int64
	Mu        float64
	Delta     float64
	Occupancy float64
	Action    float64
}

// New returns a Jury controller with the given configuration and policy.
// It panics on an invalid config (a programming error, not runtime input).
func New(cfg Config, policy Policy) *Jury {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if policy == nil {
		policy = NewReferencePolicy()
	}
	// Zero means "default" so hand-rolled Configs predating these fields
	// keep working.
	if cfg.MaxCwnd == 0 {
		cfg.MaxCwnd = 1 << 17
	}
	if cfg.CollapseLoss == 0 {
		cfg.CollapseLoss = 0.1
	}
	return &Jury{
		cfg:         cfg,
		policy:      policy,
		rng:         simcore.NewRNG(cfg.Seed ^ 0xa5a5a5a5),
		transformer: NewTransformer(cfg),
		occ:         NewOccupancyEstimator(cfg),
		cwnd:        10,
		mss:         1500,
	}
}

// NewDefault returns a Jury controller with Table 2 hyperparameters and the
// reference policy, seeded for the given flow.
func NewDefault(seed uint64) *Jury {
	cfg := DefaultConfig()
	cfg.Seed = seed
	return New(cfg, NewReferencePolicy())
}

// Name implements cc.Algorithm.
func (j *Jury) Name() string { return "jury" }

// Init implements cc.Algorithm.
func (j *Jury) Init(time.Duration) {}

// OnAck implements cc.Algorithm (Jury is interval-driven; per-ACK state is
// aggregated by the sender).
func (j *Jury) OnAck(a cc.Ack) {
	if a.Bytes > 0 {
		j.mss = float64(a.Bytes)
	}
}

// OnLoss implements cc.Algorithm (losses enter via interval statistics).
func (j *Jury) OnLoss(cc.Loss) {}

// ControlInterval implements cc.IntervalAlgorithm.
func (j *Jury) ControlInterval() time.Duration { return j.cfg.Interval }

// OnInterval implements cc.IntervalAlgorithm: one full pass of the Fig. 2
// pipeline.
func (j *Jury) OnInterval(s cc.IntervalStats) {
	j.intervals++
	if s.FlowMinRTT > 0 {
		j.minRTT = s.FlowMinRTT
	}
	loss := s.LossRate()
	if s.AckedPackets+s.LostPackets > 0 {
		if !j.haveLossMin || loss < j.lossMin {
			j.lossMin = loss
			j.haveLossMin = true
		}
	}

	sig := j.transformer.Update(s)
	j.lastSignals = sig
	j.lastOcc = j.occ.Update(sig)

	switch {
	case s.AckedPackets == 0 && s.LostPackets > 0:
		// Blackout under loss: everything sent in the interval died. Back
		// off maximally rather than consulting a model with no signal.
		j.applyAction(-1)
	case s.AckedPackets < j.cfg.MinIntervalPackets && s.LostPackets > 0:
		// Too few samples to trust the model, and losses present: retreat.
		j.applyAction(-1)
	case loss >= j.cfg.CollapseLoss:
		// Congestion collapse: the window is far beyond what the path
		// delivers. The policy cannot react — at a saturated buffer the
		// RTT difference is flat and the loss-ratio signal only carries
		// changes, so a steady severe loss level is invisible to it —
		// which otherwise lets Eq. 7 ratchet the window upward while
		// every surplus packet is dropped, starving competing flows.
		j.applyAction(-1)
	case s.AckedPackets < j.cfg.MinIntervalPackets:
		// Statistics-significance rule (§3.4): too few samples for a
		// reliable decision — keep maximally increasing the sending rate.
		// This doubles as the slow-start phase and lets short flows skip
		// model inference entirely.
		j.slowStartStep(s)
	default:
		j.decide(s)
	}

	j.updatePacing(s)
	j.lastReward = Reward(j.cfg, j.lastOcc, s.AvgRTT, j.minRTT, loss, j.lossMin)
}

// decide is the model path of the Fig. 2 pipeline, hardened at the decision
// boundary: non-finite signals or occupancy never reach the policy,
// non-finite or out-of-range policy output never reaches Eq. 7. Both cases
// degrade to the AIMD fallback and bump DegradedDecisions.
func (j *Jury) decide(s cc.IntervalStats) {
	state := j.transformer.StateInto(j.lastState)
	j.lastState = state
	if !finiteFloats(state) || !isFinite(j.lastOcc) {
		j.degradedDecisions.Add(1)
		j.applyAction(j.aimdFallback(s))
		return
	}
	mu, delta := j.policy.Decide(state)
	if !isFinite(mu) || !isFinite(delta) {
		j.degradedDecisions.Add(1)
		j.applyAction(j.aimdFallback(s))
		return
	}
	mu = cc.Clamp(mu, -1, 1)
	delta = cc.Clamp(delta, 0, 1)
	j.lastMu, j.lastDelta = mu, delta
	a := PostProcess(mu, delta, j.lastOcc)
	a = j.exploreAction(a)
	j.applyAction(a)
	if j.rangeTraceCap != 0 && len(j.rangeTrace) < j.rangeTraceCap {
		j.rangeTrace = append(j.rangeTrace, RangePoint{
			Interval:  j.intervals,
			Mu:        mu,
			Delta:     delta,
			Occupancy: j.lastOcc,
			Action:    a,
		})
	}
}

// aimdFallback is the degraded decision: multiplicative retreat when the
// interval saw losses, otherwise a full additive-style probe — plain AIMD,
// safe in any network and independent of every transformed signal.
func (j *Jury) aimdFallback(s cc.IntervalStats) float64 {
	if s.LostPackets > 0 {
		return -1
	}
	return 1
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func finiteFloats(vs []float64) bool {
	for _, v := range vs {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// PostProcess implements Eq. 6: pick the action inside the decision range
// according to the flow's bandwidth occupancy, clamped to [−1, 1].
func PostProcess(mu, delta, ratioBW float64) float64 {
	return cc.Clamp(mu+(1-2*ratioBW)*delta, -1, 1)
}

// exploreAction implements the §3.4 exploration rule: near-zero actions are
// replaced, with probability ExploreProb, by ±1 with equal probability so
// the action-feedback signals keep carrying information while the
// expectation stays unchanged.
func (j *Jury) exploreAction(a float64) float64 {
	if a > j.cfg.ExploreLow && a < j.cfg.ExploreHigh && j.rng.Bernoulli(j.cfg.ExploreProb) {
		if j.rng.Bernoulli(0.5) {
			return 1
		}
		return -1
	}
	return a
}

// applyAction implements Eq. 7, the multiplicative window update. The
// non-finite check is the last line of defense (decide() should have caught
// everything upstream, so NonFiniteActions staying zero is the proof that
// the decision-boundary guard is airtight).
func (j *Jury) applyAction(a float64) {
	if !isFinite(a) {
		j.nonfiniteActions.Add(1)
		a = -1 // fail toward retreat: never grow the window on garbage
	}
	j.lastAction = a
	if a >= 0 {
		j.cwnd *= 1 + j.cfg.Alpha*a
	} else {
		j.cwnd /= 1 - j.cfg.Alpha*a
	}
	if j.cwnd < j.cfg.MinCwnd {
		j.cwnd = j.cfg.MinCwnd
	}
	if j.cwnd > j.cfg.MaxCwnd {
		j.cwnd = j.cfg.MaxCwnd
	}
	if !isFinite(j.cwnd) {
		// NaN survives both clamps (every comparison is false); a corrupted
		// window restarts from the floor rather than poisoning the flow.
		j.nonfiniteActions.Add(1)
		j.cwnd = j.cfg.MinCwnd
	}
}

// slowStartStep doubles the window while the flow is too small to produce
// significant statistics — at most once per round trip, like TCP slow
// start: feedback lags by an RTT, so doubling any faster overshoots
// blindly.
func (j *Jury) slowStartStep(s cc.IntervalStats) {
	period := j.cfg.Interval
	if j.minRTT > period {
		period = j.minRTT
	}
	if s.Now-j.lastGrowAt < period {
		return
	}
	j.lastGrowAt = s.Now
	j.lastAction = 1
	j.cwnd *= 2
	if j.cwnd > j.cfg.MaxCwnd {
		j.cwnd = j.cfg.MaxCwnd
	}
}

// updatePacing implements Eq. 8: x = cwnd / RTT, using the mean RTT of the
// last interval (falling back to the flow minimum before feedback exists).
func (j *Jury) updatePacing(s cc.IntervalStats) {
	rtt := s.AvgRTT
	if rtt == 0 {
		rtt = j.minRTT
	}
	if rtt == 0 {
		return // no RTT sample yet: stay cwnd-limited and unpaced
	}
	j.pacing = j.cwnd * j.mss * 8 / rtt.Seconds()
}

// CWND implements cc.Algorithm.
func (j *Jury) CWND() float64 { return j.cwnd }

// PacingRate implements cc.Algorithm.
func (j *Jury) PacingRate() float64 { return j.pacing }

// Introspection accessors (used by training, experiments, and tests).

// LastState returns the most recent policy input (nil before ready). The
// slice is reused across intervals; copy it to keep a snapshot.
func (j *Jury) LastState() []float64 { return j.lastState }

// LastRange returns the most recent decision range (μ, δ).
func (j *Jury) LastRange() (float64, float64) { return j.lastMu, j.lastDelta }

// LastAction returns the most recent post-processed action.
func (j *Jury) LastAction() float64 { return j.lastAction }

// LastReward returns the most recent Eq. 9 reward.
func (j *Jury) LastReward() float64 { return j.lastReward }

// Occupancy returns the current filtered bandwidth-occupancy estimate.
func (j *Jury) Occupancy() float64 { return j.lastOcc }

// Signals returns the most recent transformed signals.
func (j *Jury) Signals() Signals { return j.lastSignals }

// DegradedDecisions returns how many control intervals fell back to the
// AIMD action because non-finite signals or policy output reached the
// decision boundary. Safe to call from any goroutine (the streaming observer
// polls it at snapshot boundaries).
func (j *Jury) DegradedDecisions() int64 { return j.degradedDecisions.Load() }

// NonFiniteActions returns how many non-finite actions (or windows) slipped
// past the decision-boundary guard into Eq. 7. It must stay zero; the
// robustness experiments assert it. Safe to call from any goroutine.
func (j *Jury) NonFiniteActions() int64 { return j.nonfiniteActions.Load() }

// EnableRangeTrace starts recording one RangePoint per policy decision, up
// to max points (memory bound: a 60 s run at the default 30 ms interval
// records ≤2000 points per flow). Call before the flow starts.
func (j *Jury) EnableRangeTrace(max int) {
	if max <= 0 {
		max = 1 << 16
	}
	j.rangeTraceCap = max
	j.rangeTrace = make([]RangePoint, 0, min(max, 4096))
}

// RangeTrace returns the recorded decision-range trajectory (nil unless
// EnableRangeTrace was called).
func (j *Jury) RangeTrace() []RangePoint { return j.rangeTrace }
