package bind

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dynatune/internal/scenario"
)

// failoverFingerprint folds every per-trial sample and the scalar
// outcomes of a failover result into one FNV-1a hash, so a single string
// pins a whole 1000-trial sample set bit for bit.
func failoverFingerprint(r *scenario.FailoverResult) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range [][]float64{r.DetectionMs, r.OTSMs} {
		put(uint64(len(s)))
		for _, v := range s {
			put(math.Float64bits(v))
		}
	}
	put(uint64(r.SplitVoteRounds))
	put(uint64(r.FailedTrials))
	put(math.Float64bits(r.MeanRandTimeoutMs))
	return fmt.Sprintf("%016x n=%d split=%d failed=%d", h.Sum64(), len(r.OTSMs), r.SplitVoteRounds, r.FailedTrials)
}

// goldenPaperFingerprints were captured from the standalone simulator
// runtime as it stood before its allocation-free, lazy-deadline rewrite:
// the paper's Fig. 4 set-up at full size (1000 trials, one worker) on the
// benchmark's first two round seeds. Runtime and engine optimisations
// must leave every sample, split-vote count and failure count unchanged;
// if one of these diverges, the change is wrong, not the golden.
var goldenPaperFingerprints = map[string]string{
	"paper-elections/1000003":      "92bc0234c179daa6 n=1000 split=232 failed=0",
	"paper-elections/1000004":      "4caa6985f2d6bb34 n=1000 split=214 failed=0",
	"paper-elections-raft/1000003": "c518816057d5db06 n=1000 split=14 failed=0",
	"paper-elections-raft/1000004": "b6c167027e370f2f n=1000 split=9 failed=0",
}

func TestPaperElectionsFingerprint(t *testing.T) {
	for _, name := range []string{"paper-elections", "paper-elections-raft"} {
		for _, seed := range []int64{1000003, 1000004} {
			spec, ok := scenario.Lookup(name)
			if !ok {
				t.Fatalf("registry has no spec %q", name)
			}
			spec.Seed, spec.Trials = seed, 1000
			res, err := RunWorkers(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", name, seed)
			got := failoverFingerprint(res.Failover)
			t.Logf("%s: %s", key, got)
			if want := goldenPaperFingerprints[key]; got != want {
				t.Errorf("%s diverged:\n got %q\nwant %q", key, got, want)
			}
		}
	}
}
