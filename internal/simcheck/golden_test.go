package simcheck

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/bbr"
	"repro/internal/cc/cubic"
	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt with the current digests")

// goldenScenarios are the canonical runs whose full event-stream digests are
// pinned in testdata/golden.txt. A digest change means the simulation now
// executes differently: either an intentional behaviour change (rerun with
// -update and explain the change in the commit) or accidental cross-PR
// nondeterminism — which is exactly what this test exists to catch.
var goldenScenarios = []struct {
	name string
	run  func(t *testing.T) *Checker
}{
	{"cubic-dumbbell", func(t *testing.T) *Checker {
		n, ck := buildDumbbell(41, 24e6, 15*time.Millisecond, bdpBytes(24e6, 30*time.Millisecond), 0, 2,
			func(int) cc.Algorithm { return cubic.New() })
		n.Run(8 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
		return ck
	}},
	{"jury-lossy-dumbbell", func(t *testing.T) *Checker {
		n, ck := buildDumbbell(43, 30e6, 10*time.Millisecond, bdpBytes(30e6, 20*time.Millisecond)*3/2, 0.003, 2,
			func(i int) cc.Algorithm { return core.NewDefault(uint64(i) + 3) })
		n.Run(8 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
		return ck
	}},
	// A short high-rate paced run: BBR's gain cycle moves the pacing rate
	// every phase, so the send timer is re-armed both at its pending time
	// (ACKs while pacing-blocked) and at fresh times, pinning the engine's
	// timer re-arm path against the plain cancel-and-schedule stream.
	{"bbr-paced-dumbbell", func(t *testing.T) *Checker {
		n, ck := buildDumbbell(47, 200e6, 10*time.Millisecond, bdpBytes(200e6, 20*time.Millisecond), 0, 2,
			func(int) cc.Algorithm { return bbr.New() })
		n.Run(3 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
		return ck
	}},
}

const goldenPath = "testdata/golden.txt"

func readGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	defer f.Close()
	out := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
		if err != nil {
			t.Fatalf("malformed golden digest %q: %v", fields[1], err)
		}
		out[fields[0]] = v
	}
	return out
}

// TestGoldenEventStreamDigests pins the digest of the canonical scenarios
// across PRs.
func TestGoldenEventStreamDigests(t *testing.T) {
	digests := make(map[string]uint64, len(goldenScenarios))
	for _, gs := range goldenScenarios {
		ck := gs.run(t)
		digests[gs.name] = ck.Digest()
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Golden event-stream digests (simcheck.Checker.Digest).\n")
		b.WriteString("# Regenerate with: go test ./internal/simcheck -run TestGolden -update\n")
		for _, gs := range goldenScenarios {
			fmt.Fprintf(&b, "%s 0x%016x\n", gs.name, digests[gs.name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %v", digests)
		return
	}
	want := readGolden(t)
	for _, gs := range goldenScenarios {
		w, ok := want[gs.name]
		if !ok {
			t.Errorf("scenario %s missing from %s (run -update)", gs.name, goldenPath)
			continue
		}
		if got := digests[gs.name]; got != w {
			t.Errorf("scenario %s digest %#016x != golden %#016x — the simulation executes "+
				"differently than when the golden file was recorded (intentional change? rerun "+
				"with -update; otherwise hunt the nondeterminism)", gs.name, got, w)
		}
	}
}
