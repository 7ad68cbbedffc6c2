package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/runstore"
)

// sweepRows is the output of one paper sweep: Fig. 7 (all eight panels),
// Fig. 8 and Fig. 9 at their default reduced protocol.
type sweepRows struct {
	f7 []*exp.Fig7Result
	f8 *exp.Fig8Result
	f9 []exp.Fig9Row
}

func (r *sweepRows) runs() int { return len(r.f7) + 1 + len(r.f9) }

// jainBitDiffs counts the Fig. 7 panels whose Jain index differs from o's
// in any bit.
func (r *sweepRows) jainBitDiffs(o *sweepRows) (n int) {
	for i, p := range r.f7 {
		if p.Jain != o.f7[i].Jain {
			n++
		}
	}
	return n
}

// jainQuantum is the resolution Fig. 7's Jain index is hashed at.
// metrics.TimewiseJain adds its per-instant indices in Go map order, so its
// last bits change from call to call on identical series; every other value
// is hashed bit for bit. jainBitDiffs counts the panels where this shows.
const jainQuantum = 1e-9

// fingerprint hashes every figure row, series included.
func (r *sweepRows) fingerprint() string {
	f := newFingerprint()
	series := func(rows []exp.FlowSeriesRow) {
		f.u64(uint64(len(rows)))
		for _, s := range rows {
			f.u64(uint64(s.T))
			f.str(s.Flow)
			f.f64(s.Mbps)
		}
	}
	for _, p := range r.f7 {
		f.str(p.Panel.ID)
		f.f64(math.Round(p.Jain / jainQuantum))
		f.f64(p.Utilization)
		f.u64(uint64(p.LastJoinConvergence))
		series(p.Series)
	}
	series(r.f8.Series)
	for i := range r.f8.LateShares {
		f.f64(r.f8.LateShares[i])
		f.f64(r.f8.AvgRTTms[i])
	}
	f.f64(r.f8.LateJain)
	for _, row := range r.f9 {
		f.str(row.Scheme)
		f.u64(uint64(row.RTT))
		f.f64(row.Ratio)
	}
	return f.sum()
}

// sweep runs the three figures through their public entry points, with
// whatever run store exp currently has attached.
func sweep(seed uint64) (*sweepRows, error) {
	f7, err := exp.Fig7AllPanels(exp.Fig7Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	f8, err := exp.Fig8RTTFairness(exp.Fig8Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	f9, err := exp.Fig9Friendliness(exp.Fig9Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &sweepRows{f7, f8, f9}, nil
}

// openStore opens a run store with juryexp's defaults: fsync policy
// interval, compaction every 256 appends.
func openStore(dir string) (*runstore.Store, error) {
	return runstore.Open(runstore.Options{Dir: dir, Fsync: runstore.FsyncInterval, CompactEvery: 256})
}

// sweepPasses opens the store in dir, runs n sweeps against it (resuming
// when asked) and hands each pass's rows, wall time and number of appended
// records to each; 0 appended means every result came from the store.
func sweepPasses(seed uint64, dir string, resume bool, n int, each func(rows *sweepRows, wall time.Duration, appends int64)) error {
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	exp.AttachStore(st, resume)
	defer exp.AttachStore(nil, false)
	for i := 0; i < n; i++ {
		runtime.GC() // each pass starts from the same heap, not the last one's garbage
		before := st.StoreStats().Appends
		start := time.Now()
		rows, err := sweep(seed)
		wall := time.Since(start)
		if err != nil {
			st.Close()
			return err
		}
		each(rows, wall, st.StoreStats().Appends-before)
	}
	return st.Close()
}

// coldPass runs one sweep into a new store in dir.
func coldPass(seed uint64, dir string) (rows *sweepRows, wall time.Duration, appends int64, err error) {
	err = sweepPasses(seed, dir, false, 1, func(r *sweepRows, w time.Duration, a int64) { rows, wall, appends = r, w, a })
	return rows, wall, appends, err
}

// storeSetup is the paper sweep's set-up: opening an empty store for the
// cold pass and reopening the filled one for the warm pass.
func storeSetup(empty, filled string) (time.Duration, error) {
	start := time.Now()
	for _, dir := range []string{empty, filled} {
		st, err := openStore(dir)
		if err != nil {
			return 0, err
		}
		if dir == empty {
			// Only the open is set-up; the empty store is discarded.
			defer os.RemoveAll(dir)
		}
		defer st.Close() // nothing was written
	}
	return time.Since(start), nil
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. warmPasses is how many warm sweeps a run times: a warm pass takes
// milliseconds, so its median needs many.
const (
	setupReps  = 31
	warmPasses = 50
)

// runPaperSweep is the paper-sweep workload. The untraced run times a cold
// sweep into an empty store, then warm sweeps that resume from it. The cold
// sweep alone outlasts the measuring time, so a run always times exactly
// one.
func runPaperSweep(cfg config) (*result, error) {
	if cfg.trace {
		return tracePaperSweep(cfg)
	}
	res := newResult()
	storeDir := filepath.Join(cfg.dir, "store")

	cold, coldWall, appends, err := coldPass(cfg.seed, storeDir)
	if err != nil {
		return nil, err
	}
	runs := int64(cold.runs())
	fp := cold.fingerprint()
	res.checks.op(runs)
	res.checks.expect(appends == runs, runs, "cold pass appended %d records for %d runs", appends, runs)
	if err := checkReference(&res.checks, "paper-sweep", cfg.seed, fp, runs); err != nil {
		return nil, err
	}

	var warm []float64
	var jainDiffs int
	err = sweepPasses(cfg.seed, storeDir, true, warmPasses, func(rows *sweepRows, wall time.Duration, appends int64) {
		warm = append(warm, wall.Seconds())
		checkWarm(&res.checks, fp, rows, appends, runs)
		jainDiffs += rows.jainBitDiffs(cold)
	})
	if err != nil {
		return nil, err
	}

	empties := 0
	setup, err := medianSetup(setupReps, func() (time.Duration, error) {
		empties++
		return storeSetup(filepath.Join(cfg.dir, fmt.Sprintf("empty-%d", empties)), storeDir)
	})
	if err != nil {
		return nil, err
	}
	warmS := median(warm)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	res.endToEnd["setup_s"] = setup
	res.endToEnd["peak_rss_mb"] = rss
	res.endToEnd["op_ms"] = coldWall.Seconds() * 1e3
	res.endToEnd["rate_per_s"] = float64(runs) / warmS
	res.name("sweep_cold_s", "s", "lower", coldWall.Seconds())
	res.name("sweep_warm_s", "s", "lower", warmS)
	res.name("fig7_jain_bit_diffs", "count", "lower", float64(jainDiffs))
	res.name("fail_frac", "share", "lower", res.checks.failFrac())
	return res, nil
}

// checkWarm checks a warm pass: every result came from the store (nothing
// was appended) and the rows match the cold pass's fingerprint.
func checkWarm(c *checks, coldFP string, warm *sweepRows, appends, runs int64) {
	c.op(runs)
	if c.expect(appends == 0, runs, "warm pass simulated %d runs instead of reading them", appends) {
		c.expect(warm.fingerprint() == coldFP, runs, "warm pass rows differ from the cold pass")
	}
}
