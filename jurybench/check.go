package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
)

// referenceJSON pins each workload's output fingerprint for defaultSeed.
//
//go:embed reference.json
var referenceJSON []byte

// fingerprint hashes output values bit for bit.
type fingerprint struct {
	h   hash.Hash64
	buf []byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) u64(v uint64) {
	f.buf = binary.LittleEndian.AppendUint64(f.buf[:0], v)
	f.h.Write(f.buf)
}

func (f *fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fingerprint) str(s string) {
	f.u64(uint64(len(s)))
	f.h.Write([]byte(s))
}

func (f *fingerprint) sum() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// checkReference compares a default-seed fingerprint with the pinned one;
// other seeds have no reference and are checked only for repeatability.
func checkReference(c *checks, workload string, seed uint64, got string, ops int64) error {
	if seed != defaultSeed {
		return nil
	}
	var refs map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	want := refs[workload]
	c.expect(got == want, ops, "%s fingerprint %s for seed %d, reference is %q", workload, got, seed, want)
	return nil
}
