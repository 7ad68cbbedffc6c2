// Command jurybench is the repository's end-to-end benchmark. It drives four
// workloads through the public functions of the exp, netsim, core, agentrpc,
// rl and runstore packages and prints one JSON result line:
//
//	jurybench --workload paper-sweep --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with nothing attached.
// --trace 1 is a separate run that wraps the calls into each layer with
// timers, reports the per-layer metrics and writes its spans as JSONL. Every
// run checks the program's outputs and exits non-zero when a check fails.
// README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/exp"
)

// maxWorkers is the load the benchmark may put on the machine: at most two
// goroutines or connections generate work.
const maxWorkers = 2

// defaultSeed is the seed whose fingerprints are pinned in reference.json.
const defaultSeed = 1

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory for run stores, removed afterwards
	tr      *tracer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"paper-sweep": runPaperSweep,
	"mesh":        runMesh,
	"serve":       runServe,
	"train":       runTrain,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jurybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper-sweep, mesh, serve or train")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 15, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics and writes spans instead of end-to-end metrics")
	commit := fs.String("commit", "unknown", "commit being measured, printed in the header")
	out := fs.String("out", ".bench_build", "directory for span files and scratch run stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "jurybench: need --workload paper-sweep|mesh|serve|train, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if err := guard(); err != nil {
		fmt.Fprintln(stderr, "jurybench:", err)
		return 2
	}
	runtime.GOMAXPROCS(maxWorkers)

	fmt.Fprintf(stdout, "# jurybench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traceFlag)
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "jurybench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "jurybench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, dir: dir}
	if cfg.trace {
		cfg.tr = newTracer()
	}

	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "jurybench: %s: %v\n", *workload, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := cfg.tr.writeJSONL(path); err != nil {
			fmt.Fprintln(stderr, "jurybench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", cfg.tr.len(), path)
	}
	for _, n := range res.checks.notes {
		fmt.Fprintln(stderr, "jurybench: check failed:", n)
	}
	if err := res.print(stdout, *workload, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "jurybench:", err)
		return 1
	}
	if res.checks.failed > 0 {
		return 1
	}
	return 0
}

// guard refuses to time a program other than the plain one: an attached
// invariant checker, observatory or telemetry hub, or sharded dumbbells,
// would each change what the end-to-end numbers mean.
func guard() error {
	switch {
	case os.Getenv("JURY_SIMCHECK") != "":
		return errors.New("JURY_SIMCHECK is set; unset it to measure the unchecked program")
	case exp.ForceCheck:
		return errors.New("exp.ForceCheck is on")
	case exp.Telemetry != nil:
		return errors.New("exp.Telemetry is attached")
	case exp.Obs != nil:
		return errors.New("exp.Obs is attached")
	case exp.DefaultShards != 1:
		return fmt.Errorf("exp.DefaultShards is %d, not 1", exp.DefaultShards)
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload returns: its metrics of both kinds and its
// output checks. A workload fills the kind its mode asks for.
type result struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	// named holds the workload's readings under their descriptive names
	// (sweep_cold_s, serve_p99_ms, ...), printed for people, not parsed.
	named  []namedReading
	checks checks
}

type namedReading struct {
	name, unit, better string
	value              float64
}

func newResult() *result {
	return &result{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
}

func (r *result) name(name, unit, better string, v float64) {
	r.named = append(r.named, namedReading{name, unit, better, v})
}

// print writes the readable table and, last, the JSON result line.
func (r *result) print(w io.Writer, workload string, traced bool) error {
	for _, n := range r.named {
		fmt.Fprintf(w, "# %-22s %14.6g %-10s (%s is better)\n", n.name, n.value, n.unit, n.better)
	}
	defs, values := endToEndMetrics, r.endToEnd
	if traced {
		defs, values = perLayerMetrics, r.perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.checks.failed == 0, r.checks.attempted, r.checks.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("%s did not report %s", workload, d.Name)
		}
		out.Metrics[d.Name] = metric{v, d.Unit}
		if !traced {
			fmt.Fprintf(w, "# e2e %-18s %14.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("%s attempted no operation", workload)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// checks counts operations and the ones whose output was wrong.
type checks struct {
	attempted, failed int64
	notes             []string
}

// op records n attempted operations.
func (c *checks) op(n int64) { c.attempted += n }

// expect records n failed operations with a note when ok is false.
func (c *checks) expect(ok bool, n int64, format string, args ...any) bool {
	if !ok {
		c.failed += n
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// failFrac is the share of attempted operations that failed.
func (c *checks) failFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
