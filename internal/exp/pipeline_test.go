package exp

import (
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The short configurations the pipeline tests run Table 3, the ablations and
// the §5.1 parking lot at.
var (
	pinTab3     = Tab3Options{Repeats: 2, Lifetime: 20 * time.Second, Seed: 3}
	pinAblation = AblationOptions{Stagger: 5 * time.Second, Lifetime: 20 * time.Second, Seed: 4}
	pinMultiBtl = MultiBottleneckOptions{Lifetime: 20 * time.Second, Seed: 5}
)

type pinnedValue struct {
	label string
	bits  uint64
}

// pinnedRows runs every experiment the pin test covers and flattens each
// row's numbers into labelled float64 bit patterns.
func pinnedRows(t *testing.T) []pinnedValue {
	t.Helper()
	var out []pinnedValue
	add := func(label string, v float64) {
		out = append(out, pinnedValue{label, math.Float64bits(v)})
	}
	for _, run := range []func(Tab3Options) ([]Tab3Row, error){Tab3LongShort, Tab3HeteroRTT} {
		rows, err := run(pinTab3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			p := r.Experiment + "/" + r.Class
			add(p+"/thr", r.ThrMbps)
			add(p+"/delay", r.DelayRatio)
			add(p+"/flows", float64(r.Flows))
		}
	}
	abl, err := RunAblation(pinAblation)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range abl {
		add(r.Variant+"/jain", r.Jain)
		add(r.Variant+"/util", r.Utilization)
		add(r.Variant+"/queue", r.QueueMS)
	}
	mb, err := RunMultiBottleneck(pinMultiBtl)
	if err != nil {
		t.Fatal(err)
	}
	add("multibtl/long", mb.LongMbps)
	add("multibtl/cross1", mb.Cross1Mbps)
	add("multibtl/cross2", mb.Cross2Mbps)
	add("multibtl/jain1", mb.Link1Jain)
	add("multibtl/jain2", mb.Link2Jain)
	return out
}

// pinnedWant holds the rows the hand-built networks produced before Table 3,
// the ablations and the parking lot moved onto the shared run path. Routing
// them through Run (and, under TestMain, the invariant checker) must not
// change a single bit.
var pinnedWant = []pinnedValue{
	{"long-short/overall/thr", 0x401ef86455e642c4},      // 7.742570249728207
	{"long-short/overall/delay", 0x3fff37787c76821c},    // 1.9510426389534876
	{"long-short/overall/flows", 0x4065800000000000},    // 172
	{"long-short/long/thr", 0x4032f907f6e5d4c4},         // 18.97277777777778
	{"long-short/long/delay", 0x3fffc8776a53135c},       // 1.9864420083333334
	{"long-short/long/flows", 0x4020000000000000},       // 8
	{"long-short/short/thr", 0x401cc76deb79b89a},        // 7.194755248359934
	{"long-short/short/delay", 0x3fff3065ce84b975},      // 1.9493158404471533
	{"long-short/short/flows", 0x4064800000000000},      // 164
	{"hetero-rtt/small-rtt/thr", 0x402318a2b0c4d868},    // 9.548116230038616
	{"hetero-rtt/small-rtt/delay", 0x400fec04d221cb55},  // 3.990243569999999
	{"hetero-rtt/small-rtt/flows", 0x4034000000000000},  // 20
	{"hetero-rtt/large-rtt/thr", 0x4026221193be3a88},    // 11.06654035279395
	{"hetero-rtt/large-rtt/delay", 0x3ffff2c3436ab415},  // 1.9967682488888887
	{"hetero-rtt/large-rtt/flows", 0x4034000000000000},  // 20
	{"jury-full/jain", 0x3feb0b3e0c4ef8c4},              // 0.8451223602676454
	{"jury-full/util", 0x3fec957cd466f502},              // 0.893248
	{"jury-full/queue", 0x404657cfe7b1b695},             // 44.686032258771924
	{"no-exploration-action/jain", 0x3fe9521bf2739e32},  // 0.7912730918296289
	{"no-exploration-action/util", 0x3fecc2f837b4a234},  // 0.8988
	{"no-exploration-action/queue", 0x4046528711d798d9}, // 44.644747
	{"no-post-processing/jain", 0x3fdebb0ed3caa1fe},     // 0.48016710932509443
	{"no-post-processing/util", 0x3fea2a80064a9cdc},     // 0.817688
	{"no-post-processing/queue", 0x40464e7207371cd5},    // 44.61285486403509
	{"no-signal-filter/jain", 0x3fe7a49119a314e8},       // 0.7388387203906435
	{"no-signal-filter/util", 0x3febd88c1db0142f},       // 0.870184
	{"no-signal-filter/queue", 0x40464ca3d7686d88},      // 44.59875004385964
	{"multibtl/long", 0x4037895622efbc89},               // 23.536470588235293
	{"multibtl/cross1", 0x404bda0d4073a6da},             // 55.703529411764706
	{"multibtl/cross2", 0x404c3c62c92f95fd},             // 56.47176470588236
	{"multibtl/jain1", 0x3feb79054e3a3718},              // 0.8585230377081841
	{"multibtl/jain2", 0x3feb5cf9573f0ac4},              // 0.8550993637112119
}

// TestPipelinePinnedRows pins the Table 3, ablation and parking-lot rows at a
// short configuration, bit for bit.
func TestPipelinePinnedRows(t *testing.T) {
	got := pinnedRows(t)
	if len(got) != len(pinnedWant) {
		for _, v := range got {
			t.Logf("{%q, %#016x}, // %v", v.label, v.bits, math.Float64frombits(v.bits))
		}
		t.Fatalf("%d pinned values, want %d", len(got), len(pinnedWant))
	}
	for i, w := range pinnedWant {
		if g := got[i]; g != w {
			t.Errorf("%s = %v (%#016x), want %v (%#016x)", w.label,
				math.Float64frombits(g.bits), g.bits, math.Float64frombits(w.bits), w.bits)
		}
	}
}

// TestPipelineCoversEveryRun: every whole-run experiment goes through the
// instrumented run path, so an enabled hub counts one started run per
// simulation it executes.
func TestPipelineCoversEveryRun(t *testing.T) {
	hub := &telemetry.Hub{
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.NewSink(io.Discard)),
	}
	Telemetry = hub
	defer func() { Telemetry = nil }()
	started := hub.Registry.Counter("exp_runs_started_total", "")

	short := Tab3Options{Repeats: 2, Lifetime: 5 * time.Second, Seed: 1}
	cases := []struct {
		name string
		sims int64
		run  func() error
	}{
		{"Tab3LongShort", 2, func() error { _, err := Tab3LongShort(short); return err }},
		{"Tab3HeteroRTT", 2, func() error { _, err := Tab3HeteroRTT(short); return err }},
		{"RunAblation", int64(len(AblationVariants())), func() error {
			_, err := RunAblation(AblationOptions{Stagger: time.Second, Lifetime: 3 * time.Second, Seed: 1})
			return err
		}},
		{"RunMultiBottleneck", 1, func() error {
			_, err := RunMultiBottleneck(MultiBottleneckOptions{Lifetime: 5 * time.Second, Seed: 1})
			return err
		}},
		{"RunHuge", 1, func() error {
			_, err := RunHuge(HugeOptions{Segments: 4, TotalFlows: 64, Horizon: 500 * time.Millisecond, Shards: 2, Seed: 1})
			return err
		}},
	}
	for _, c := range cases {
		before := started.Value()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := started.Value() - before; got != c.sims {
			t.Errorf("%s raised exp_runs_started_total by %d, want %d", c.name, got, c.sims)
		}
	}
}
