package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/metrics"
)

// defaultSeed is the seed the recorded digests belong to. At any other
// seed only the invariants are checked.
const defaultSeed = 1

// digestsJSON holds, per workload, the summary digest of every world at
// defaultSeed. Regenerate it with --print-digests after a change that
// alters the model on purpose.
//
//go:embed digests.json
var digestsJSON []byte

// recordedDigests parses digestsJSON: workload -> world label -> digest.
func recordedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("parse digests.json: %w", err)
	}
	return d, nil
}

// digest is a short hash of every field of a run summary.
func digest(s metrics.Summary) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // Summary is plain numbers; Marshal cannot fail
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// checkSummary reports why a world's summary is wrong, or nil. want is
// the recorded digest, or "" when none applies.
func checkSummary(s metrics.Summary, requests int, want string) error {
	switch {
	case s.Broadcasts != requests:
		return fmt.Errorf("ran %d broadcasts, want %d", s.Broadcasts, requests)
	case !unit(s.MeanRE):
		return fmt.Errorf("mean RE %v outside [0, 1]", s.MeanRE)
	case !unit(s.MeanSRB):
		return fmt.Errorf("mean SRB %v outside [0, 1]", s.MeanSRB)
	case s.Events == 0:
		return fmt.Errorf("no events executed")
	}
	if want != "" {
		if got := digest(s); got != want {
			return fmt.Errorf("summary digest %s, recorded %s", got, want)
		}
	}
	return nil
}

func unit(x float64) bool { return !math.IsNaN(x) && x >= 0 && x <= 1 }
